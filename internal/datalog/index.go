package datalog

import (
	"slices"
	"sync"

	"orchestra/internal/schema"
)

// relIndex is the per-relation hash-index layer. For every bound-column set
// that evaluation has probed, it keeps a table from the hash of a fact's
// projection on those columns to a chain of the slots that carry it. An
// index is built once, on first probe, and from then on is maintained
// incrementally as facts merge in (Rel.insert) or die (Rel.remove) — it is
// never rebuilt per probe or invalidated wholesale on deletion. The empty
// column set is an index too: its single chain is the relation's full-scan
// order.
//
// Chains are insertion-ordered and doubly linked through per-slot next/prev
// arrays, so appending and unlinking are O(1) and nothing in the layer holds
// a pointer. A lazy build walks the slots in insertion order (slot order,
// unless a freed slot was reused), so no chain's order comes from map
// iteration. Distinct projections
// can share a hash and so a chain: a probe compares each candidate's probed
// columns (see pipeline.next).
//
// The mutex guards the lazy builds. An extent is shared between a database
// and its snapshots until a write copies it, so concurrent evaluations —
// two Evals of one EDB, or a reader of a frozen snapshot beside the live
// database's own evaluation — can probe the same extent at once (read
// lock), and one that needs a not-yet-built index takes the write lock to
// build it. Chains are only mutated through the extent's owning database
// (merges and incremental deletion, after the copy-on-write), never on an
// extent another evaluation can see.
type relIndex struct {
	mu     sync.RWMutex
	byCols []*colIndex
}

// colIndex is one hash index over a fixed bound-column set.
type colIndex struct {
	cols []int
	// minArity is max(cols)+1: shorter tuples have no projection on cols
	// and are left out of the index.
	minArity int
	chains   map[uint64]chain // projection hash -> slots
	// next and prev link each indexed slot to its chain neighbors (noSlot
	// at the ends); they are indexed by slot.
	next, prev []uint32
}

// chain is one hash bucket's ends.
type chain struct{ head, tail uint32 }

// projHash hashes t's projection on cols.
func projHash(t schema.Tuple, cols []int) uint64 {
	h := schema.HashStart
	for _, c := range cols {
		h = t[c].FoldHash(h)
	}
	return h
}

// ensureIndex returns the index on cols, building it on first use.
func (r *Rel) ensureIndex(cols []int) *colIndex {
	r.idx.mu.RLock()
	ci := r.idx.lookup(cols)
	r.idx.mu.RUnlock()
	if ci != nil {
		return ci
	}
	r.idx.mu.Lock()
	defer r.idx.mu.Unlock()
	if ci := r.idx.lookup(cols); ci != nil {
		return ci
	}
	ci = &colIndex{cols: slices.Clone(cols), chains: map[uint64]chain{}}
	for _, c := range cols {
		ci.minArity = max(ci.minArity, c+1)
	}
	for _, s := range r.slotsInOrder() {
		ci.link(s, r.fact(s).Tuple)
	}
	r.idx.byCols = append(r.idx.byCols, ci)
	return ci
}

// lookup returns the index on cols, if built. Callers hold mu.
func (x *relIndex) lookup(cols []int) *colIndex {
	for _, ci := range x.byCols {
		if slices.Equal(ci.cols, cols) {
			return ci
		}
	}
	return nil
}

// link appends slot s, holding t, to the tail of its chain.
func (ci *colIndex) link(s uint32, t schema.Tuple) {
	if len(t) < ci.minArity {
		return
	}
	if n := int(s) + 1; n > len(ci.next) {
		ci.next = append(ci.next, make([]uint32, n-len(ci.next))...)
		ci.prev = append(ci.prev, make([]uint32, n-len(ci.prev))...)
	}
	h := projHash(t, ci.cols)
	ci.next[s] = noSlot
	c, ok := ci.chains[h]
	if !ok {
		ci.prev[s] = noSlot
		ci.chains[h] = chain{head: s, tail: s}
		return
	}
	ci.prev[s] = c.tail
	ci.next[c.tail] = s
	c.tail = s
	ci.chains[h] = c
}

// unlink removes slot s, holding t, from its chain.
func (ci *colIndex) unlink(s uint32, t schema.Tuple) {
	if len(t) < ci.minArity {
		return
	}
	h := projHash(t, ci.cols)
	c := ci.chains[h]
	p, n := ci.prev[s], ci.next[s]
	if p == noSlot {
		c.head = n
	} else {
		ci.next[p] = n
	}
	if n == noSlot {
		c.tail = p
	} else {
		ci.prev[n] = p
	}
	if c.head == noSlot {
		delete(ci.chains, h)
	} else {
		ci.chains[h] = c
	}
}

// probe returns the chain of slots whose projection on ci's columns hashes
// to h, as its first and last slot (noSlot, noSlot when empty). Capturing
// the last slot bounds a scan to the facts present at the probe: a fact
// merged later links in after it.
func (ci *colIndex) probe(h uint64) (head, tail uint32) {
	c, ok := ci.chains[h]
	if !ok {
		return noSlot, noSlot
	}
	return c.head, c.tail
}

// Lookup returns the facts whose projection on cols equals vals, in
// insertion order, building the index on cols on first use. With no bound
// columns it returns all facts. The returned facts are copies.
func (r *Rel) Lookup(cols []int, vals schema.Tuple) []Fact {
	if len(vals) != len(cols) {
		return nil
	}
	h := schema.HashStart
	for _, v := range vals {
		h = v.FoldHash(h)
	}
	ci := r.ensureIndex(cols)
	var out []Fact
	for s, end := ci.probe(h); s != noSlot; s = ci.next[s] {
		f := r.fact(s)
		if projEqual(f.Tuple, cols, vals) {
			out = append(out, *f)
		}
		if s == end {
			break
		}
	}
	return out
}

// projEqual reports whether t's projection on cols equals vals.
func projEqual(t schema.Tuple, cols []int, vals schema.Tuple) bool {
	for i, c := range cols {
		if !t[c].Equal(vals[i]) {
			return false
		}
	}
	return true
}

// indexInsert adds a freshly stored slot to every maintained index.
func (r *Rel) indexInsert(s uint32) {
	r.idx.mu.Lock()
	if len(r.idx.byCols) > 0 {
		t := r.fact(s).Tuple
		for _, ci := range r.idx.byCols {
			ci.link(s, t)
		}
	}
	r.idx.mu.Unlock()
}

// indexRemove drops a slot about to be freed from every maintained index,
// keeping every chain's order.
func (r *Rel) indexRemove(s uint32) {
	r.idx.mu.Lock()
	t := r.fact(s).Tuple
	for _, ci := range r.idx.byCols {
		ci.unlink(s, t)
	}
	r.idx.mu.Unlock()
}
