package datalog

import (
	"cmp"
	"iter"
	"maps"
	"slices"
	"sort"
	"sync/atomic"

	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

// Fact is a tuple with its provenance annotation.
type Fact struct {
	Tuple schema.Tuple
	Prov  provenance.Poly
}

// Rel is the annotated extent of one predicate — the per-predicate shard of
// a DB. Facts are addressed by slot: a uint32 that names the fact's place
// in the extent's slot arrays, each kept in pages of relChunkSize entries
// (see pages), so the extent is a few large allocations rather than one
// heap object per fact, which keeps the long-lived union database dense and
// the GC's pointer-chasing scan load low, and growing it never copies what
// it holds. The first page doubles up to relChunkSize, so the many tiny
// extents a goal query derives stay tiny. Per-slot metadata (hash,
// same-hash link, insertion number) sits in a pointer-free array beside
// the facts, and membership is a pointer-free table from a tuple's
// structural hash (schema.Tuple.Hash) to its first slot; a shared hash is
// settled with Tuple.Equal. Freed slots are reused. A provenance update is
// a single in-place write to the slot's fact.
//
// A Rel may be mutated in place only by the DB that owns it (see ownership).
// DB.Snapshot retires the ownership of every extent the two sides then
// share: each must copy-on-write (DB.MutableRel) before its next mutation,
// because the pages are reachable from the other view. Read paths (Get,
// Contains, Lookup, Facts) never need the copy; lazy index builds are
// semantically read-only and stay safe on a shared Rel.
type Rel struct {
	// facts holds the facts and meta their bookkeeping, both indexed by
	// slot; meta's length is the number of slots ever used. A fact is read
	// through its slot, never through a retained pointer, because the
	// first page moves as it doubles.
	facts pages[Fact]
	meta  pages[slotMeta]
	// table maps a tuple hash to the first live slot holding that hash;
	// slotMeta.next links the rest.
	table map[uint64]uint32
	// free lists the slots of removed facts for reuse, so delete-heavy
	// churn recycles page capacity instead of pinning mostly dead pages
	// behind a few live stragglers.
	free []uint32
	// clock numbers insertions, so a reused slot still reports when its
	// fact arrived; reused records that some slot was, so slot order may
	// differ from insertion order.
	clock  uint64
	reused bool
	n      int      // live facts
	idx    relIndex // see index.go
	// owner is the ownership the extent was created (or cloned) under; it
	// never changes. A DB holding any other ownership clones before mutating.
	owner *ownership
}

// slotMeta is one slot's pointer-free bookkeeping.
type slotMeta struct {
	hash uint64 // the fact's Tuple.Hash
	seq  uint64 // the fact's insertion number; 0 for a free slot
	next uint32 // next slot with the same hash, or noSlot
}

// noSlot ends a slot chain.
const noSlot = ^uint32(0)

// ownership is an identity token for copy-on-write: a DB may mutate in place
// exactly the extents stamped with the token it currently holds. Snapshot
// hands both sides a fresh token, so every extent they share is stamped with
// a token neither holds any more — the first write on either side clones.
// (One byte wide: zero-size allocations need not have distinct addresses.)
type ownership struct{ _ byte }

// NewRel creates an empty extent.
func NewRel() *Rel {
	return &Rel{table: map[uint64]uint32{}}
}

// relChunkSize is the most entries one page of a slot array holds: facts,
// their metadata, and each index's chain links.
const relChunkSize = 256

// pages is a slot-indexed array kept in pages of relChunkSize entries:
// entry s lives at p[s/relChunkSize][s%relChunkSize]. Growing it never
// copies what it holds — a slice grown by append copies each entry about
// four times over and leaves the old arrays to the collector — except in
// the first page, which doubles from one entry up to relChunkSize so a tiny
// array stays tiny. Every later page is allocated at full size. Entries at
// or past the length are zero, and truncate keeps the pages for reuse.
type pages[T any] struct {
	p [][]T // allocated pages; every one but the first has relChunkSize entries
	n int   // entries in use
}

// len returns the number of entries in use.
func (a *pages[T]) len() int { return a.n }

// at returns entry s, which must be below the length. The pointer is valid
// until the next grow, which may move the first page.
func (a *pages[T]) at(s uint32) *T {
	return &a.p[s/relChunkSize][s%relChunkSize]
}

// grow extends the array to n entries when n is longer; the new entries
// are zero.
func (a *pages[T]) grow(n int) {
	if n <= a.n {
		return
	}
	if len(a.p) == 0 {
		a.p = append(a.p, nil)
	}
	if first := len(a.p[0]); first < relChunkSize && first < n {
		size := max(first, 1)
		for size < n {
			size *= 2
		}
		size = min(size, relChunkSize)
		a.p[0] = append(make([]T, 0, size), a.p[0]...)[:size]
	}
	for len(a.p)*relChunkSize < n {
		a.p = append(a.p, make([]T, relChunkSize))
	}
	a.n = n
}

// push appends v and returns its index.
func (a *pages[T]) push(v T) uint32 {
	s := uint32(a.n)
	a.grow(a.n + 1)
	*a.at(s) = v
	return s
}

// reserve sizes the first page of an empty array for n entries.
func (a *pages[T]) reserve(n int) {
	if len(a.p) == 0 && n > 0 {
		a.p = append(a.p, make([]T, min(n, relChunkSize)))
	}
}

// truncate empties the array and keeps its pages. It clears the entries in
// use, so it costs the length, never the capacity.
func (a *pages[T]) truncate() {
	for i := 0; i < a.n; i += relChunkSize {
		pg := a.p[i/relChunkSize]
		clear(pg[:min(len(pg), a.n-i)])
	}
	a.n = 0
}

// clone copies the pages in use into new ones of the same sizes.
func (a *pages[T]) clone() pages[T] {
	used := (a.n + relChunkSize - 1) / relChunkSize
	c := pages[T]{p: make([][]T, used), n: a.n}
	for i, pg := range a.p[:used] {
		c.p[i] = slices.Clone(pg)
	}
	return c
}

// reserve sizes an empty extent for n facts, so a decoder that knows the
// count fills it without growing the hash table as it goes.
func (r *Rel) reserve(n int) {
	if r.meta.len() > 0 || n <= 0 {
		return
	}
	r.table = make(map[uint64]uint32, n)
	r.facts.reserve(n)
	r.meta.reserve(n)
}

// fact returns the fact at slot s. The pointer is valid until the next
// insertion (which may move the first page).
func (r *Rel) fact(s uint32) *Fact {
	return r.facts.at(s)
}

// find returns the live slot holding t, whose hash is h.
func (r *Rel) find(h uint64, t schema.Tuple) (uint32, bool) {
	s, ok := r.table[h]
	if !ok {
		return noSlot, false
	}
	for ; s != noSlot; s = r.meta.at(s).next {
		if r.fact(s).Tuple.Equal(t) {
			return s, true
		}
	}
	return noSlot, false
}

// insert stores a fact known to be absent and folds it into every
// maintained index. It returns the fact's slot: a freed one when one
// exists, otherwise the next slot.
func (r *Rel) insert(h uint64, t schema.Tuple, p provenance.Poly) uint32 {
	var s uint32
	if n := len(r.free); n > 0 {
		s = r.free[n-1]
		r.free = r.free[:n-1]
		r.reused = true
	} else {
		s = r.meta.push(slotMeta{})
		r.facts.grow(r.meta.len())
	}
	*r.fact(s) = Fact{Tuple: t, Prov: p}
	next := noSlot
	if head, ok := r.table[h]; ok {
		next = head
	}
	r.clock++
	*r.meta.at(s) = slotMeta{hash: h, seq: r.clock, next: next}
	r.table[h] = s
	r.n++
	r.indexInsert(s)
	return s
}

// Len returns the number of facts.
func (r *Rel) Len() int { return r.n }

// Get returns the fact for the tuple, if present.
func (r *Rel) Get(t schema.Tuple) (Fact, bool) {
	if s, ok := r.find(t.Hash(), t); ok {
		return *r.fact(s), true
	}
	return Fact{}, false
}

// Contains reports tuple membership.
func (r *Rel) Contains(t schema.Tuple) bool {
	_, ok := r.find(t.Hash(), t)
	return ok
}

// put inserts or merges a fact; it reports whether the extent changed.
func (r *Rel) put(t schema.Tuple, p provenance.Poly) bool {
	h := t.Hash()
	if s, ok := r.find(h, t); ok {
		f := r.fact(s)
		merged, _, changed, _ := provenance.MergeWitness(f.Prov, p, 0)
		if !changed {
			return false
		}
		// Stored annotations are interned (hash-consed): equal polynomials
		// across the database share one allocation and compare by pointer.
		f.Prov = merged.Intern()
		return true
	}
	r.insert(h, t, p.Intern())
	return true
}

// remove deletes the fact at live slot s, keeping indexes in sync. The dead
// slot is zeroed so it stops pinning the tuple and annotation, and queued
// for reuse by the next insertion; callers that still need the fact's
// contents must copy them out first.
func (r *Rel) remove(s uint32) {
	r.indexRemove(s)
	m := r.meta.at(s)
	if head := r.table[m.hash]; head == s {
		if m.next == noSlot {
			delete(r.table, m.hash)
		} else {
			r.table[m.hash] = m.next
		}
	} else {
		for p := r.meta.at(head); ; p = r.meta.at(p.next) {
			if p.next == s {
				p.next = m.next
				break
			}
		}
	}
	*r.fact(s) = Fact{}
	*m = slotMeta{}
	r.free = append(r.free, s)
	r.n--
}

// reset empties the extent and keeps its capacity — slot pages, hash table
// and built indexes — for the workspace that owns it (see workspace). It
// costs the slots used since the last reset, never the capacity: those
// slots are cleared, so the extent pins no tuple or annotation, and the
// keys their facts put in the hash table and in every index's chains are
// deleted one by one, because clearing a Go map costs its capacity, which
// never shrinks.
func (r *Rel) reset() {
	for s := range uint32(r.meta.len()) {
		m := r.meta.at(s)
		if m.seq == 0 {
			continue // freed: already out of the table and the chains
		}
		delete(r.table, m.hash)
		t := r.fact(s).Tuple
		for _, ci := range r.idx.byCols {
			if len(t) >= ci.minArity {
				delete(ci.chains, projHash(t, ci.cols))
			}
		}
	}
	r.facts.truncate()
	r.meta.truncate()
	r.free = r.free[:0]
	r.clock, r.reused, r.n = 0, false, 0
	for _, ci := range r.idx.byCols {
		ci.links.truncate()
	}
}

// All yields the live facts in slot order, without copying the extent.
func (r *Rel) All() iter.Seq[Fact] {
	return func(yield func(Fact) bool) {
		for s := range uint32(r.meta.len()) {
			if r.meta.at(s).seq != 0 && !yield(*r.fact(s)) {
				return
			}
		}
	}
}

// live reports whether slot s holds a fact.
func (r *Rel) live(s uint32) bool {
	return int(s) < r.meta.len() && r.meta.at(s).seq != 0
}

// slotsInOrder returns the live slots in insertion order.
func (r *Rel) slotsInOrder() []uint32 {
	out := make([]uint32, 0, r.n)
	for s := range uint32(r.meta.len()) {
		if r.meta.at(s).seq != 0 {
			out = append(out, s)
		}
	}
	if r.reused {
		slices.SortFunc(out, func(a, b uint32) int { return cmp.Compare(r.meta.at(a).seq, r.meta.at(b).seq) })
	}
	return out
}

// Facts returns all facts in deterministic (tuple) order.
func (r *Rel) Facts() []Fact {
	out := make([]Fact, 0, r.n)
	for s := range uint32(r.meta.len()) {
		if r.meta.at(s).seq != 0 {
			out = append(out, *r.fact(s))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tuple.Compare(out[j].Tuple) < 0 })
	return out
}

// DB maps predicate names to extents.
type DB struct {
	rels map[string]*Rel
	// owner is the ownership db currently holds. Atomic because concurrent
	// evaluations over one shared EDB each snapshot it at entry, and a
	// snapshot replaces the token.
	owner atomic.Pointer[ownership]
}

// NewDB creates an empty database.
func NewDB() *DB {
	db := &DB{rels: map[string]*Rel{}}
	db.owner.Store(new(ownership))
	return db
}

// Rel returns the extent for pred, creating it if needed. The returned
// extent may be shared with a snapshot: callers must treat it as read-only
// and obtain mutable extents through MutableRel.
func (db *DB) Rel(pred string) *Rel {
	r, ok := db.rels[pred]
	if !ok {
		r = NewRel()
		r.owner = db.owner.Load()
		db.rels[pred] = r
	}
	return r
}

// MutableRel returns an extent for pred that is exclusively owned by db,
// copy-on-write-cloning it first if it is shared with a snapshot. All
// mutation paths (put, remove, in-place provenance writes) must go through
// it; with no snapshot outstanding it is a map lookup and a pointer test.
func (db *DB) MutableRel(pred string) *Rel {
	r, ok := db.rels[pred]
	if !ok {
		return db.Rel(pred)
	}
	if own := db.owner.Load(); r.owner != own {
		r = r.cowClone()
		r.owner = own
		db.rels[pred] = r
	}
	return r
}

// cowClone copies the extent's arrays (facts are mutated in place by
// provenance merges, so the pages cannot be shared across the COW
// boundary). Every fact keeps its slot. Indexes are not copied — the clone
// rebuilds them lazily on first probe, while the frozen side keeps its own.
func (r *Rel) cowClone() *Rel {
	return &Rel{
		facts:  r.facts.clone(),
		meta:   r.meta.clone(),
		table:  maps.Clone(r.table),
		free:   slices.Clone(r.free),
		clock:  r.clock,
		reused: r.reused,
		n:      r.n,
	}
}

// Has reports whether the predicate has a (possibly empty) extent.
func (db *DB) Has(pred string) bool {
	_, ok := db.rels[pred]
	return ok
}

// Preds returns the sorted predicate names present.
func (db *DB) Preds() []string {
	out := make([]string, 0, len(db.rels))
	for p := range db.rels {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Add inserts a fact.
func (db *DB) Add(pred string, t schema.Tuple, p provenance.Poly) bool {
	return db.MutableRel(pred).put(t, p)
}

// AddTuple inserts a fact annotated 1 (used for plain set-semantics EDBs).
func (db *DB) AddTuple(pred string, t schema.Tuple) bool {
	return db.MutableRel(pred).put(t, provenance.One())
}

// Set stores the fact, replacing (not merging) any existing annotation for
// the tuple. Callers that compute the annotation themselves (the storage
// view's exact provenance sum) use it instead of Add's
// subsumption-checked alternative-derivation accumulation. An
// annotation-only change writes the stored fact in place — the tuple's
// index entries are unaffected, so no index maintenance runs.
func (db *DB) Set(pred string, t schema.Tuple, p provenance.Poly) {
	h := t.Hash()
	r := db.MutableRel(pred)
	if s, ok := r.find(h, t); ok {
		r.fact(s).Prov = p.Intern()
		return
	}
	r.insert(h, t, p.Intern())
}

// Remove deletes the tuple from pred's extent, if present.
func (db *DB) Remove(pred string, t schema.Tuple) {
	r := db.MutableRel(pred)
	if s, ok := r.find(t.Hash(), t); ok {
		r.remove(s)
	}
}

// Snapshot returns an O(#preds) frozen view of the database: the snapshot
// shares every extent with db, and both sides give up ownership of the
// shared extents, so the first mutation of each extent — on either side —
// clones it first (copy-on-write, see MutableRel). Extents that are never
// mutated are never copied, which is what makes snapshot-based evaluation
// cheap: Eval only pays for the head relations it actually derives into.
//
// The snapshot observes none of db's later changes and vice versa, exactly
// like the deep Clone it replaces, provided all mutations go through the DB
// API (Add, MutableRel, and the evaluator's merge paths).
func (db *DB) Snapshot() *DB {
	c := &DB{rels: make(map[string]*Rel, len(db.rels))}
	c.owner.Store(new(ownership))
	for p, r := range db.rels {
		c.rels[p] = r
	}
	db.owner.Store(new(ownership))
	return c
}
