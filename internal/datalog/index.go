package datalog

import (
	"sync"

	"orchestra/internal/schema"
)

// relIndex is the per-relation hash-index layer. For every bound-column set
// that evaluation has probed, it keeps a map from the projected value key to
// the matching facts. An index is built once, on first probe, and from then
// on is maintained incrementally as facts merge in (Rel.put) or die
// (Rel.remove) — it is never rebuilt per probe or invalidated wholesale on
// deletion. The empty column set is an index too: its single bucket is the
// relation's full-scan order.
//
// Buckets hold *Fact, so probes return shared slices with no per-probe
// copying, and a provenance update through the pointer is visible in every
// index at once. Callers must treat returned buckets as read-only.
//
// The mutex doubles as the relation's merge lock: during a parallel stratum
// round many workers probe the same relation concurrently (read lock), and a
// worker that needs a not-yet-built index takes the write lock to build it
// against the fact set, which is frozen for the duration of the probe phase.
// Bucket contents are only mutated between rounds (eager sequential merges,
// the coordinator's buffered merge, or incremental deletion), never while
// workers are probing.
type relIndex struct {
	mu     sync.RWMutex
	byCols map[string]*colIndex
}

// colIndex is one hash index over a fixed bound-column set.
type colIndex struct {
	cols    []int
	buckets map[string][]*Fact // projected value key -> facts
}

func encodeCols(cols []int) string {
	b := make([]byte, 0, len(cols)*2)
	for _, c := range cols {
		// Arities are tiny; one byte per column is plenty.
		b = append(b, byte(c), ';')
	}
	return string(b)
}

// ensureIndex returns the index on cols, building it on first use. colKey
// must equal encodeCols(cols); callers on the hot path have it precomputed.
func (r *Rel) ensureIndex(colKey string, cols []int) *colIndex {
	r.idx.mu.RLock()
	ci := r.idx.byCols[colKey]
	r.idx.mu.RUnlock()
	if ci != nil {
		return ci
	}
	r.idx.mu.Lock()
	defer r.idx.mu.Unlock()
	if ci := r.idx.byCols[colKey]; ci != nil {
		return ci
	}
	ci = &colIndex{cols: append([]int(nil), cols...), buckets: map[string][]*Fact{}}
	var kb []byte
	for _, f := range r.facts {
		kb = kb[:0]
		for _, c := range ci.cols {
			kb = appendProjKey(kb, f.Tuple[c])
		}
		ci.buckets[string(kb)] = append(ci.buckets[string(kb)], f)
	}
	if r.idx.byCols == nil {
		r.idx.byCols = map[string]*colIndex{}
	}
	r.idx.byCols[colKey] = ci
	return ci
}

// appendProjKey appends one length-prefixed component of a projection key.
// Delegating to the schema package keeps this encoding byte-identical to
// the Tuple.Key encoding of the facts map, which negation membership
// probes (containsKey) rely on.
func appendProjKey(b []byte, v schema.Value) []byte {
	return schema.AppendComponentKeyTo(b, v)
}

// lookupBucket returns the facts whose projection on the index's columns
// has the given (pre-encoded) value key. The returned slice is shared with
// the index: callers must not mutate it.
func (r *Rel) lookupBucket(colKey string, cols []int, valKey []byte) []*Fact {
	return r.ensureIndex(colKey, cols).buckets[string(valKey)]
}

// Lookup returns the facts whose projection on cols equals vals, building
// the index on cols on first use. With no bound columns it returns all
// facts. The returned slice and the facts it points to are shared with the
// index: callers must not mutate them.
func (r *Rel) Lookup(cols []int, vals schema.Tuple) []*Fact {
	var buf [64]byte // keeps typical keys off the heap
	kb := buf[:0]
	for _, v := range vals {
		kb = appendProjKey(kb, v)
	}
	return r.lookupBucket(encodeCols(cols), cols, kb)
}

// indexInsert adds a freshly stored fact to every maintained index.
func (r *Rel) indexInsert(f *Fact) {
	r.idx.mu.Lock()
	var kb []byte
	for _, ci := range r.idx.byCols {
		kb = kb[:0]
		for _, c := range ci.cols {
			kb = appendProjKey(kb, f.Tuple[c])
		}
		ci.buckets[string(kb)] = append(ci.buckets[string(kb)], f)
	}
	r.idx.mu.Unlock()
}

// bucketScanLimit bounds the work indexRemove spends shifting one bucket.
// Removal from a bucket is a linear scan, so on huge buckets — notably the
// single full-scan bucket of the empty column set — per-fact maintenance
// would make bulk deletions quadratic. Beyond this size the whole index is
// dropped instead and rebuilt lazily on the next probe (one O(n) rebuild
// per deletion batch, like the pre-index-layer engine), while selective
// indexes with small buckets keep their cheap incremental updates.
const bucketScanLimit = 64

// indexRemove drops a deleted fact from every maintained index, preserving
// bucket order so candidate enumeration stays deterministic.
func (r *Rel) indexRemove(f *Fact) {
	r.idx.mu.Lock()
	var kb []byte
	for colKey, ci := range r.idx.byCols {
		kb = kb[:0]
		for _, c := range ci.cols {
			kb = appendProjKey(kb, f.Tuple[c])
		}
		vk := string(kb)
		b := ci.buckets[vk]
		if len(b) > bucketScanLimit {
			delete(r.idx.byCols, colKey)
			continue
		}
		for i, ff := range b {
			if ff == f {
				b = append(b[:i], b[i+1:]...)
				break
			}
		}
		if len(b) == 0 {
			delete(ci.buckets, vk)
		} else {
			ci.buckets[vk] = b
		}
	}
	r.idx.mu.Unlock()
}
