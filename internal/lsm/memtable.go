package lsm

import (
	"bytes"
	"sync/atomic"
)

// memtable is the in-memory tier: a multi-version skiplist ordered by key
// ascending, then write sequence descending, so the newest version of a key
// comes first and a reader bounded at sequence S takes the first version
// with seq <= S. Nothing is ever overwritten or unlinked: a write of an
// existing key links a new node in front of the older versions. That is
// what lets DB.Snapshot be a sequence number instead of a freeze — readers
// holding an older bound keep skipping the newer nodes.
//
// One writer at a time (the DB mutex) inserts; any number of readers
// traverse without a lock. A node is fully built before the writer links it
// bottom level first, and every link is an atomic pointer, so a reader sees
// either the list without the node or the complete node.
type memtable struct {
	head *mnode
	// height is the tallest tower linked so far; only the writer touches it.
	height int
	// rnd drives tower heights (xorshift; seeded constant, so a memtable's
	// shape is a function of its insert sequence alone).
	rnd uint64
	// bytes approximates resident size (keys + values + node overhead) to
	// trigger flushes; n counts nodes. Both are writer-side only.
	bytes int
	n     int
}

// mnode is one version of one key. del marks a tombstone (masking older
// versions here and any value of the key in lower tiers).
type mnode struct {
	key  []byte
	val  []byte
	seq  uint64
	del  bool
	next []atomic.Pointer[mnode]
}

const (
	memMaxHeight = 12
	// memNodeOverhead is the accounted cost of a node beyond its key and
	// value bytes: the struct, its slice headers and an average tower.
	memNodeOverhead = 96
)

func newMemtable() *memtable {
	return &memtable{
		head:   &mnode{next: make([]atomic.Pointer[mnode], memMaxHeight)},
		height: 1,
		rnd:    0x9E3779B97F4A7C15,
	}
}

func (m *memtable) len() int { return m.n }

// randomHeight grows a tower one level with probability 1/4.
func (m *memtable) randomHeight() int {
	m.rnd ^= m.rnd << 13
	m.rnd ^= m.rnd >> 7
	m.rnd ^= m.rnd << 17
	h := 1
	for r := m.rnd; h < memMaxHeight && r&3 == 0; r >>= 2 {
		h++
	}
	return h
}

// set links a new version of key. seq must exceed every sequence already in
// the memtable, so the new node sorts in front of the key's older versions
// and the insert position depends on the key alone. key and val are
// retained; callers hand over private copies.
func (m *memtable) set(key, val []byte, del bool, seq uint64) {
	var prev [memMaxHeight]*mnode
	x := m.head
	for lvl := m.height - 1; lvl >= 0; lvl-- {
		for nx := x.next[lvl].Load(); nx != nil && bytes.Compare(nx.key, key) < 0; nx = x.next[lvl].Load() {
			x = nx
		}
		prev[lvl] = x
	}
	h := m.randomHeight()
	for ; m.height < h; m.height++ {
		prev[m.height] = m.head
	}
	n := &mnode{key: key, val: val, seq: seq, del: del, next: make([]atomic.Pointer[mnode], h)}
	for lvl := 0; lvl < h; lvl++ {
		n.next[lvl].Store(prev[lvl].next[lvl].Load())
	}
	for lvl := 0; lvl < h; lvl++ {
		prev[lvl].next[lvl].Store(n)
	}
	m.bytes += len(key) + len(val) + memNodeOverhead
	m.n++
}

// seek returns the first node at or after (key, bound) in list order: the
// newest version of key visible at bound, or else the first node of the
// next key (which the caller must still check against the bound) — the node
// the level-0 walk stopped at, not a reload of x.next[0], which a concurrent
// writer may have re-pointed at a newer version of key.
func (m *memtable) seek(key []byte, bound uint64) *mnode {
	x := m.head
	var nx *mnode
	for lvl := memMaxHeight - 1; lvl >= 0; lvl-- {
		for nx = x.next[lvl].Load(); nx != nil; nx = x.next[lvl].Load() {
			if c := bytes.Compare(nx.key, key); c > 0 || (c == 0 && nx.seq <= bound) {
				break
			}
			x = nx
		}
	}
	return nx
}

// get returns the version of key visible at bound, if any.
func (m *memtable) get(key []byte, bound uint64) (*mnode, bool) {
	if n := m.seek(key, bound); n != nil && bytes.Equal(n.key, key) {
		return n, true
	}
	return nil, false
}

// memSource walks the versions visible at bound in key order: one node per
// key, the newest with seq <= bound.
type memSource struct {
	m       *memtable
	bound   uint64
	lo      []byte
	cur     *mnode
	started bool
}

func (s *memSource) next() {
	var n *mnode
	if !s.started {
		s.started = true
		if s.lo == nil {
			n = s.m.head.next[0].Load()
		} else {
			n = s.m.seek(s.lo, s.bound)
		}
	} else {
		// Step over the remaining (older) versions of the current key.
		for n = s.cur.next[0].Load(); n != nil && bytes.Equal(n.key, s.cur.key); n = n.next[0].Load() {
		}
	}
	// Step over versions written after the snapshot.
	for n != nil && n.seq > s.bound {
		n = n.next[0].Load()
	}
	s.cur = n
}
func (s *memSource) valid() bool { return s.cur != nil }
func (s *memSource) key() []byte { return s.cur.key }
func (s *memSource) val() []byte { return s.cur.val }
func (s *memSource) del() bool   { return s.cur.del }
func (s *memSource) err() error  { return nil }
