package lsm

import "bytes"

// Snapshot is a consistent point-in-time view of the DB: the DB's write
// sequence at the moment it was taken, plus references to the memtables and
// segments that existed then. Taking one changes nothing in the DB — the
// memtable keeps accepting writes, and the snapshot's reads skip every
// version sequenced after its bound — so a snapshot costs the same whether
// it is the first or the ten-thousandth since the last write. Snapshots
// serve point reads and — the reason they exist — ordered range scans that
// stream disk-resident relations straight into the pull-based iterator
// pipelines.
//
// Close releases the snapshot's references on the SSTable segments it pins;
// compaction can unlink segment files while snapshots still read them, and
// the bytes go away only when the last reader lets go. A memtable the DB has
// since flushed stays reachable from the snapshot and is collected with it.
type Snapshot struct {
	seq    uint64       // versions with a higher sequence are invisible
	mems   []*memtable  // oldest first; the last is the DB's mutable one
	tables []*sstReader // oldest first
	closed bool
}

// Snapshot captures the DB's current contents.
func (db *DB) Snapshot() *Snapshot {
	db.mu.Lock()
	defer db.mu.Unlock()
	sn := &Snapshot{
		seq:    db.seq,
		mems:   append([]*memtable(nil), db.mems...),
		tables: append([]*sstReader(nil), db.tables...),
	}
	for _, r := range sn.tables {
		r.ref()
	}
	return sn
}

// Close releases the snapshot. Using a closed snapshot is a bug; Close is
// idempotent.
func (sn *Snapshot) Close() {
	if sn.closed {
		return
	}
	sn.closed = true
	for _, r := range sn.tables {
		r.unref()
	}
}

// Get returns the value of key as of the snapshot.
func (sn *Snapshot) Get(key []byte) ([]byte, bool, error) {
	return lookup(sn.mems, sn.tables, key, sn.seq)
}

// lookup is the point read: memtables newest first at the given sequence
// bound, then segments newest first; the first tier holding the key decides.
func lookup(mems []*memtable, tables []*sstReader, key []byte, bound uint64) ([]byte, bool, error) {
	for i := len(mems) - 1; i >= 0; i-- {
		if n, ok := mems[i].get(key, bound); ok {
			if n.del {
				return nil, false, nil
			}
			return n.val, true, nil
		}
	}
	for i := len(tables) - 1; i >= 0; i-- {
		val, del, ok, err := tables[i].get(key)
		if err != nil {
			return nil, false, err
		}
		if ok {
			if del {
				return nil, false, nil
			}
			return val, true, nil
		}
	}
	return nil, false, nil
}

// Scan streams live keys in [lo, hi) in ascending order (nil bounds are
// open). fn returning false stops the scan. The key and value slices are
// only valid during the callback.
func (sn *Snapshot) Scan(lo, hi []byte, fn func(key, val []byte) bool) error {
	it := sn.Iter(lo, hi)
	for it.Next() {
		if !fn(it.Key(), it.Value()) {
			return it.Err()
		}
	}
	return it.Err()
}

// Walk is Scan for callbacks that can fail: it streams live keys in
// [lo, hi) in ascending order until fn returns an error, and returns that
// error or the iterator's.
func (sn *Snapshot) Walk(lo, hi []byte, fn func(key, val []byte) error) error {
	it := sn.Iter(lo, hi)
	for it.Next() {
		if err := fn(it.Key(), it.Value()); err != nil {
			return err
		}
	}
	return it.Err()
}

// Iter returns a pull-based iterator over live keys in [lo, hi) — the shape
// the pipeline cursors consume: position with Next, read Key/Value,
// check Err at the end. Every source seeks to lo, and a segment reads only
// the blocks that overlap [lo, hi), so a bounded scan costs the range it
// covers, not the tiers it covers it in.
func (sn *Snapshot) Iter(lo, hi []byte) *Iterator {
	return &Iterator{m: newMerger(sn.mems, sn.tables, lo, hi, sn.seq), hi: hi}
}

// source is one ordered input to the merge: a memtable or a segment.
type source interface {
	valid() bool
	key() []byte
	val() []byte
	del() bool
	next()
	err() error
}

type sstSource struct {
	it      *sstIter
	started bool
}

func (s *sstSource) next() {
	if !s.started {
		s.started = true // iter() already positioned at the first entry
		return
	}
	s.it.next()
}
func (s *sstSource) valid() bool { return s.it.valid }
func (s *sstSource) key() []byte { return s.it.cur.key }
func (s *sstSource) val() []byte { return s.it.cur.val }
func (s *sstSource) del() bool   { return s.it.cur.del }
func (s *sstSource) err() error  { return s.it.err }

// merger k-way-merges sources newest-first: for each key the newest source
// wins and the versions it shadows are skipped. Tombstones come out like
// any other entry — scans drop them, flushes and compactions decide by what
// lies beneath. The source count is bounded by the compaction fan-in, so
// the minimum is found by a plain pass.
type merger struct {
	srcs []source // index order = priority, 0 newest
	k, v []byte
	del  bool
	fail error
}

// newMerger positions a merge at lo (nil: the start) over the given tiers,
// reading memtables at the sequence bound; segments read no block that
// starts at or past hi (nil: no bound). Memtables are newer than every
// table; within each group, later elements are newer.
func newMerger(mems []*memtable, tables []*sstReader, lo, hi []byte, bound uint64) *merger {
	m := &merger{srcs: make([]source, 0, len(mems)+len(tables))}
	for i := len(mems) - 1; i >= 0; i-- {
		m.srcs = append(m.srcs, &memSource{m: mems[i], bound: bound, lo: lo})
	}
	for i := len(tables) - 1; i >= 0; i-- {
		m.srcs = append(m.srcs, &sstSource{it: tables[i].iter(lo, hi)})
	}
	for _, s := range m.srcs {
		s.next()
	}
	return m
}

// next advances to the next key, tombstones included; it returns false at
// the end or on error. k and v stay valid until the following call.
func (m *merger) next() bool {
	// Find the minimal key; ties resolve to the lowest index (newest).
	win := -1
	for i, s := range m.srcs {
		if e := s.err(); e != nil {
			m.fail = e
			return false
		}
		if !s.valid() {
			continue
		}
		if win < 0 || bytes.Compare(s.key(), m.srcs[win].key()) < 0 {
			win = i
		}
	}
	if win < 0 {
		return false
	}
	w := m.srcs[win]
	m.k, m.v, m.del = w.key(), w.val(), w.del()
	// Advance every source sitting on this key (the winner and the versions
	// it shadows). Keys and values point into memtable nodes and loaded
	// blocks, neither of which is recycled, so m.k and m.v stay readable.
	for _, s := range m.srcs {
		for s.valid() && bytes.Equal(s.key(), m.k) {
			s.next()
		}
	}
	return true
}

// Iterator is a snapshot scan: the merge of the snapshot's tiers with
// tombstoned keys dropped, bounded above by hi.
type Iterator struct {
	m  *merger
	hi []byte
}

// Next advances to the next live key; it returns false at the end of the
// range or on error.
func (it *Iterator) Next() bool {
	for it.m.next() {
		if it.hi != nil && bytes.Compare(it.m.k, it.hi) >= 0 {
			return false
		}
		if !it.m.del {
			return true
		}
	}
	return false
}

// Key returns the current key; valid until the next call to Next.
func (it *Iterator) Key() []byte { return it.m.k }

// Value returns the current value; valid until the next call to Next.
func (it *Iterator) Value() []byte { return it.m.v }

// Err returns the first error the iterator hit, if any.
func (it *Iterator) Err() error { return it.m.fail }
