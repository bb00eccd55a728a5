package lsm

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"orchestra/internal/obs"
)

// Options tunes a DB. The zero value is valid.
type Options struct {
	// MemtableBytes flushes the memtable to an SSTable segment once its
	// resident size passes this bound. Default 4 MiB.
	MemtableBytes int
	// WALSegmentBytes rotates the active WAL segment past this size, so a
	// crash replays a bounded suffix. Default 8 MiB.
	WALSegmentBytes int64
	// BlockBytes is the SSTable data-block split threshold. Default 4 KiB.
	BlockBytes int
	// CompactFanIn merges an age-contiguous run of this many same-tier
	// segments into one. Default 4.
	CompactFanIn int
	// NoSync skips the per-commit fsync (rotation and flush still sync).
	// Benchmarks and tests that only need crash-consistency of flushed
	// state use it; durable deployments must not.
	NoSync bool
	// Metrics, when non-nil, receives lsm_* counters and the WAL fsync
	// latency histogram. Nil disables recording at nil-check cost.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.MemtableBytes <= 0 {
		o.MemtableBytes = 4 << 20
	}
	if o.WALSegmentBytes <= 0 {
		o.WALSegmentBytes = 8 << 20
	}
	if o.BlockBytes <= 0 {
		o.BlockBytes = 4096
	}
	if o.CompactFanIn < 2 {
		o.CompactFanIn = 4
	}
	return o
}

// DB is a single-directory log-structured store: one WAL, one mutable
// memtable, frozen memtables awaiting flush, and a stack of SSTable
// segments (oldest first). All methods are safe for concurrent use; writes
// and structural changes serialize on one mutex, which is the group-commit
// point — a Batch is the unit of atomicity and of fsync.
type DB struct {
	mu  sync.Mutex
	dir string
	opt Options
	man *manifest
	wal *wal
	// walSegs counts the WAL segment files on disk (the replay set plus the
	// active segment).
	walSegs int
	// seq numbers every write; a Snapshot is this counter's value plus the
	// tiers it pins. It restarts at 0 on Open — segments carry no
	// sequences, their age order is the manifest's.
	seq uint64
	// mems lists the memtables oldest first. The last is the mutable one;
	// any before it are frozen, which happens only inside a flush: they are
	// gone when it returns, or stay readable if it failed.
	mems   []*memtable
	tables []*sstReader // oldest first, parallel to man.Tables
	met    dbMetrics
	closed bool
	// broken latches a failed flush/compaction: the on-disk state is still
	// consistent (the manifest only ever swaps atomically) but the in-memory
	// view may not match, so further writes are refused.
	broken error
}

// ref-counted reader lifetime: the DB owns one reference per live table,
// snapshots take another while they exist, and the file closes when the
// last reference drops — so compaction can unlink segment files while
// older snapshots still scan them.
func (r *sstReader) ref() { r.refs.Add(1) }

func (r *sstReader) unref() {
	if r.refs.Add(-1) == 0 {
		r.f.Close()
	}
}

// Open opens (or creates) a DB in dir, recovering from the manifest and
// replaying the WAL suffix. A torn record at the tail of the final WAL
// segment — the signature of a crash mid-append — is truncated away with a
// warning; corruption anywhere else fails the open.
func Open(dir string, opt Options) (*DB, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("lsm: create db dir: %w", err)
	}
	man, _, err := loadManifest(dir)
	if err != nil {
		return nil, err
	}
	db := &DB{dir: dir, opt: opt, man: man, mems: []*memtable{newMemtable()}, met: newDBMetrics(opt.Metrics)}
	for _, tm := range man.Tables {
		r, err := openSSTable(dir, tm)
		if err != nil {
			db.closeTables()
			return nil, err
		}
		r.refs.Store(1)
		r.met = db.met
		db.tables = append(db.tables, r)
	}
	seqs, err := listWALs(dir)
	if err != nil {
		db.closeTables()
		return nil, err
	}
	var replay []uint64
	maxSeq := man.WALFloor
	for _, s := range seqs {
		if s >= man.WALFloor {
			replay = append(replay, s)
		} else {
			// Fully flushed before the crash; remove the leftover.
			os.Remove(filepath.Join(dir, walName(s)))
		}
		if s > maxSeq {
			maxSeq = s
		}
	}
	if err := replayWAL(dir, replay, db.applyEncodedBatch); err != nil {
		db.closeTables()
		return nil, err
	}
	// Append to a fresh segment rather than the possibly-truncated tail; the
	// replayed segments stay on disk until the next flush advances the floor
	// past them.
	db.wal, err = openWAL(dir, maxSeq+1, opt.WALSegmentBytes)
	if err != nil {
		db.closeTables()
		return nil, err
	}
	db.walSegs = len(replay) + 1
	db.setGauges()
	return db, nil
}

// mut returns the mutable memtable.
func (db *DB) mut() *memtable { return db.mems[len(db.mems)-1] }

func (db *DB) closeTables() {
	for _, r := range db.tables {
		r.unref()
	}
	db.tables = nil
}

// Close flushes the memtable and releases the DB.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	var firstErr error
	if db.broken == nil {
		if err := db.flushLocked(); err != nil {
			firstErr = err
		}
	}
	if err := db.wal.close(); err != nil && firstErr == nil {
		firstErr = err
	}
	db.closeTables()
	return firstErr
}

// Batch is an ordered set of writes applied and logged atomically: one WAL
// record, one checksum, at most one fsync.
type Batch struct {
	ops     []batchOp
	payload int
}

type batchOp struct {
	key []byte
	val []byte
	del bool
}

// NewBatch returns an empty batch.
func NewBatch() *Batch { return &Batch{} }

// Put schedules a write. The byte slices are retained until Apply.
func (b *Batch) Put(key, val []byte) {
	b.ops = append(b.ops, batchOp{key: key, val: val})
	b.payload += len(key) + len(val) + 16
}

// Delete schedules a tombstone.
func (b *Batch) Delete(key []byte) {
	b.ops = append(b.ops, batchOp{key: key, del: true})
	b.payload += len(key) + 16
}

// Len returns the number of scheduled operations.
func (b *Batch) Len() int { return len(b.ops) }

const (
	opPut = 1
	opDel = 2
)

func (b *Batch) encode() []byte {
	out := make([]byte, 0, b.payload)
	for _, op := range b.ops {
		if op.del {
			out = append(out, opDel)
			out = binary.AppendUvarint(out, uint64(len(op.key)))
			out = append(out, op.key...)
			continue
		}
		out = append(out, opPut)
		out = binary.AppendUvarint(out, uint64(len(op.key)))
		out = append(out, op.key...)
		out = binary.AppendUvarint(out, uint64(len(op.val)))
		out = append(out, op.val...)
	}
	return out
}

var errMalformedBatch = fmt.Errorf("lsm: malformed wal batch")

// decodeField splits one uvarint-length-prefixed field off b.
func decodeField(b []byte) (field, rest []byte, ok bool) {
	l, n := binary.Uvarint(b)
	if n <= 0 || uint64(len(b[n:])) < l {
		return nil, nil, false
	}
	return b[n : n+int(l) : n+int(l)], b[n+int(l):], true
}

// decodeOp splits the first operation off an encoded batch. Key and value
// are sub-slices of payload.
func decodeOp(payload []byte) (op batchOp, rest []byte, err error) {
	kind := payload[0]
	if kind != opPut && kind != opDel {
		return op, nil, fmt.Errorf("lsm: unknown wal batch op %d", kind)
	}
	var ok bool
	if op.key, rest, ok = decodeField(payload[1:]); !ok {
		return op, nil, errMalformedBatch
	}
	if op.del = kind == opDel; op.del {
		return op, rest, nil
	}
	if op.val, rest, ok = decodeField(rest); !ok {
		return op, nil, errMalformedBatch
	}
	return op, rest, nil
}

// applyEncodedBatch writes one encoded batch — a WAL record being replayed
// or the payload Apply just logged — into the mutable memtable. The
// memtable retains sub-slices of payload, so the caller must never reuse
// it. The sequence advances per operation: the later of two writes to one
// key in the same batch wins.
func (db *DB) applyEncodedBatch(payload []byte) error {
	for len(payload) > 0 {
		op, rest, err := decodeOp(payload)
		if err != nil {
			return err
		}
		db.seq++
		db.mut().set(op.key, op.val, op.del, db.seq)
		payload = rest
	}
	return nil
}

// Apply commits the batch: logged to the WAL (fsynced when sync is true and
// the DB syncs), then applied to the memtable. Group commit happens
// naturally when callers assemble many logical writes into one batch — the
// published-update store batches a whole PublishAll window this way.
func (db *DB) Apply(b *Batch, sync bool) error {
	if b.Len() == 0 {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.usable(); err != nil {
		return err
	}
	payload := b.encode()
	if err := db.wal.append(payload); err != nil {
		return err
	}
	db.met.walAppends.Inc()
	db.met.walBytes.Add(int64(len(payload)))
	if sync && !db.opt.NoSync {
		var start time.Time
		if db.met.fsyncNs != nil {
			start = time.Now()
		}
		if err := db.wal.sync(); err != nil {
			return err
		}
		if db.met.fsyncNs != nil {
			db.met.fsyncNs.Observe(time.Since(start).Nanoseconds())
		}
	}
	// What reaches the memtable is what the log says: the same decoder
	// recovery uses, over the payload just written.
	if err := db.applyEncodedBatch(payload); err != nil {
		return err
	}
	err := db.maybeFlushLocked()
	db.setGauges()
	return err
}

// Put writes one key (a one-op batch).
func (db *DB) Put(key, val []byte, sync bool) error {
	b := NewBatch()
	b.Put(key, val)
	return db.Apply(b, sync)
}

func (db *DB) usable() error {
	if db.closed {
		return fmt.Errorf("lsm: db is closed")
	}
	if db.broken != nil {
		return fmt.Errorf("lsm: db failed a structural operation and is read-only: %w", db.broken)
	}
	return nil
}

// Get returns the current value of key.
func (db *DB) Get(key []byte) ([]byte, bool, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, false, fmt.Errorf("lsm: db is closed")
	}
	db.met.gets.Inc()
	return lookup(db.mems, db.tables, key, db.seq)
}

// maybeFlushLocked flushes when the memtable passes its bound, and rotates
// an oversized WAL segment otherwise.
func (db *DB) maybeFlushLocked() error {
	if db.mut().bytes >= db.opt.MemtableBytes {
		return db.flushLocked()
	}
	if db.wal.full() {
		// Rotation alone doesn't advance the WAL floor — the data is still
		// only in the memtable — but it bounds single-segment replay cost.
		if err := db.wal.rotate(); err != nil {
			db.broken = err
			return err
		}
		db.walSegs++
	}
	return nil
}

func (db *DB) flushLocked() error {
	defer db.setGauges()
	if err := db.doFlush(); err != nil {
		db.broken = err
		return err
	}
	if err := db.maybeCompactLocked(); err != nil {
		db.broken = err
		return err
	}
	return nil
}

func (db *DB) doFlush() error {
	if db.mut().len() > 0 {
		db.mems = append(db.mems, newMemtable()) // freezes the previous one
	}
	frozen := db.mems[:len(db.mems)-1]
	if len(frozen) == 0 {
		return nil
	}
	// New writes land in a fresh WAL segment; everything frozen lives in
	// segments before it, so the floor can advance there after the flush.
	if err := db.wal.rotate(); err != nil {
		return err
	}
	db.walSegs++
	floor := db.wal.seq
	// Newest-wins merge across the frozen memtables, already in key order.
	m := newMerger(frozen, nil, nil, nil, db.seq)
	var entries []sstEntry
	for m.next() {
		if m.del && len(db.tables) == 0 {
			// Nothing older to mask: the tombstone is already meaningless.
			continue
		}
		entries = append(entries, sstEntry{key: m.k, val: m.v, del: m.del})
	}
	if m.fail != nil {
		return m.fail
	}
	if len(entries) > 0 {
		num := db.man.NextFile
		tm, err := writeSSTable(db.dir, num, entries, db.opt.BlockBytes)
		if err != nil {
			return err
		}
		r, err := openSSTable(db.dir, tm)
		if err != nil {
			return err
		}
		r.refs.Store(1)
		r.met = db.met
		db.man.NextFile++
		db.man.Tables = append(db.man.Tables, tm)
		db.man.WALFloor = floor
		if err := db.man.save(db.dir); err != nil {
			r.unref()
			return err
		}
		db.tables = append(db.tables, r)
		db.met.flushes.Inc()
	} else {
		db.man.WALFloor = floor
		if err := db.man.save(db.dir); err != nil {
			return err
		}
	}
	db.mems = []*memtable{db.mut()}
	db.removeOldWALs(floor)
	return nil
}

// removeOldWALs unlinks the segments below the floor. A segment that will
// not unlink is only dead weight — the next Open skips and retries it — so
// it stays counted instead of failing the flush.
func (db *DB) removeOldWALs(floor uint64) {
	seqs, err := listWALs(db.dir)
	if err != nil {
		return
	}
	db.walSegs = len(seqs)
	for _, s := range seqs {
		if s < floor && os.Remove(filepath.Join(db.dir, walName(s))) == nil {
			db.walSegs--
		}
	}
}

// Stats reports coarse engine state for tests and tooling.
type Stats struct {
	MemtableBytes   int
	FrozenMemtables int
	Tables          int
	TableBytes      int64
	WALSegment      uint64
}

// Stats returns a point-in-time snapshot of engine internals.
func (db *DB) Stats() Stats {
	db.mu.Lock()
	defer db.mu.Unlock()
	st := Stats{
		MemtableBytes:   db.mut().bytes,
		FrozenMemtables: len(db.mems) - 1,
		Tables:          len(db.tables),
		WALSegment:      db.wal.seq,
	}
	for _, t := range db.man.Tables {
		st.TableBytes += t.Size
	}
	return st
}

// setGauges publishes the steady-state series. Callers hold db.mu.
func (db *DB) setGauges() {
	db.met.memBytes.Set(int64(db.mut().bytes))
	db.met.frozen.Set(int64(len(db.mems) - 1))
	db.met.walSegs.Set(int64(db.walSegs))
	db.met.tables.Set(int64(len(db.tables)))
}
