package datalog

import (
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
// a DB. Facts are stored once, by pointer, and shared with the hash-index
// layer (index.go), so a provenance update is a single in-place write. The
// *Fact structs themselves are allocated from contiguous slabs (see
// newFact) that grow geometrically up to relSlabSize facts: one bulk
// allocation per relSlabSize facts instead of one heap object per fact on a
// large extent, which densifies the long-lived union database and cuts the
// GC's pointer-chasing scan load, while the many tiny extents a goal query
// derives stay tiny.
//
// A Rel may be mutated in place only by the DB that owns it (see ownership).
// DB.Snapshot retires the ownership of every extent the two sides then
// share: each must copy-on-write (DB.MutableRel) before its next mutation,
// because both the facts map and the *Fact structs it points to are
// reachable from the other view. Read paths (Get, Contains, Lookup, Facts)
// never need the copy; lazy index builds are semantically read-only and stay
// safe on a shared Rel.
type Rel struct {
	facts map[string]*Fact
	// slab is the current allocation slab. Slabs are fixed-capacity and
	// never reallocated, so &slab[i] stays valid for the extent's lifetime —
	// the address stability the facts map and index buckets rely on.
	slab []Fact
	// free lists zeroed slots of removed facts for reuse, so delete-heavy
	// churn recycles slab capacity instead of pinning mostly dead slabs
	// behind a few live stragglers.
	free []*Fact
	idx  relIndex // see index.go
	// owner is the ownership the extent was created (or cloned) under; it
	// never changes. A DB holding any other ownership clones before mutating.
	owner *ownership
}

// ownership is an identity token for copy-on-write: a DB may mutate in place
// exactly the extents stamped with the token it currently holds. Snapshot
// hands both sides a fresh token, so every extent they share is stamped with
// a token neither holds any more — the first write on either side clones.
// (One byte wide: zero-size allocations need not have distinct addresses.)
type ownership struct{ _ byte }

// NewRel creates an empty extent.
func NewRel() *Rel {
	return &Rel{facts: map[string]*Fact{}}
}

// relSlabSize is the most facts one contiguous slab holds.
const relSlabSize = 256

// newFact allocates storage for one fact, reusing a freed slot when one
// exists and otherwise appending to the shard's current slab. A full slab
// is followed by one of min(relSlabSize, Len()+1) facts, so an extent's
// slabs double until they reach relSlabSize. Callers must store the
// returned pointer in the facts map before the next newFact call.
func (r *Rel) newFact(t schema.Tuple, p provenance.Poly) *Fact {
	if n := len(r.free); n > 0 {
		f := r.free[n-1]
		r.free = r.free[:n-1]
		*f = Fact{Tuple: t, Prov: p}
		return f
	}
	if len(r.slab) == cap(r.slab) {
		r.slab = make([]Fact, 0, min(relSlabSize, len(r.facts)+1))
	}
	r.slab = append(r.slab, Fact{Tuple: t, Prov: p})
	return &r.slab[len(r.slab)-1]
}

// Len returns the number of facts.
func (r *Rel) Len() int { return len(r.facts) }

// Get returns the fact for the tuple, if present.
func (r *Rel) Get(t schema.Tuple) (Fact, bool) {
	if f := r.facts[t.Key()]; f != nil {
		return *f, true
	}
	return Fact{}, false
}

// Contains reports tuple membership.
func (r *Rel) Contains(t schema.Tuple) bool {
	_, ok := r.facts[t.Key()]
	return ok
}

// containsKey reports membership by pre-encoded tuple key.
func (r *Rel) containsKey(key []byte) bool {
	_, ok := r.facts[string(key)]
	return ok
}

// put inserts or merges a fact; it reports whether the extent changed.
func (r *Rel) put(t schema.Tuple, p provenance.Poly) bool {
	return r.putKeyed(t.Key(), t, p)
}

// putKeyed is put with the tuple key already computed. Genuine insertions
// are folded incrementally into every maintained index.
func (r *Rel) putKeyed(k string, t schema.Tuple, p provenance.Poly) bool {
	if f := r.facts[k]; f != nil {
		merged, _, changed, _ := provenance.MergeWitness(f.Prov, p, 0)
		if !changed {
			return false
		}
		// Stored annotations are interned (hash-consed): equal polynomials
		// across the database share one allocation and compare by pointer.
		f.Prov = merged.Intern()
		return true
	}
	f := r.newFact(t, p.Intern())
	r.facts[k] = f
	r.indexInsert(f)
	return true
}

// remove deletes the fact stored under key k, keeping indexes in sync. The
// dead slab slot is zeroed so it stops pinning the tuple and annotation,
// and queued for reuse by the next insertion; callers that still need the
// fact's contents must copy them out first.
func (r *Rel) remove(k string) {
	f, ok := r.facts[k]
	if !ok {
		return
	}
	delete(r.facts, k)
	r.indexRemove(f)
	*f = Fact{}
	r.free = append(r.free, f)
}

// Facts returns all facts in deterministic (tuple) order.
func (r *Rel) Facts() []Fact {
	out := make([]Fact, 0, len(r.facts))
	for _, f := range r.facts {
		out = append(out, *f)
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
	// lentFrom and lentTo record, on a snapshot, the ownership its source
	// held before the snapshot and the one it was handed; see Release.
	lentFrom, lentTo *ownership
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

// cowClone deep-copies the extent's facts (the *Fact structs are mutated in
// place by provenance merges, so they cannot be shared across the COW
// boundary). The clone's facts land in one exactly-sized slab — a cloned
// shard is maximally dense regardless of the original's slab fill. Indexes
// are not copied — the clone rebuilds them lazily on first probe, while the
// frozen side keeps its own.
func (r *Rel) cowClone() *Rel {
	nr := NewRel()
	nr.slab = make([]Fact, 0, len(r.facts))
	for k, f := range r.facts {
		nr.slab = append(nr.slab, *f)
		nr.facts[k] = &nr.slab[len(nr.slab)-1]
	}
	return nr
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
	k := t.Key()
	r := db.MutableRel(pred)
	if f := r.facts[k]; f != nil {
		f.Prov = p.Intern()
		return
	}
	r.putKeyed(k, t, p)
}

// Remove deletes the tuple from pred's extent, if present.
func (db *DB) Remove(pred string, t schema.Tuple) {
	db.MutableRel(pred).remove(t.Key())
}

// Size returns the total number of facts.
func (db *DB) Size() int {
	n := 0
	for _, r := range db.rels {
		n += len(r.facts)
	}
	return n
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
	c := &DB{rels: make(map[string]*Rel, len(db.rels)), lentTo: new(ownership)}
	c.owner.Store(new(ownership))
	for p, r := range db.rels {
		c.rels[p] = r
	}
	c.lentFrom = db.owner.Swap(c.lentTo)
	return c
}

// Release ends snap's life: the caller promises that neither snap nor
// anything derived from it (snapshots of it, evaluations over it) will be
// read again. If snap is db's latest snapshot (or every later one has been
// released too), db takes back the ownership it held before snap was taken,
// so the extents that only snap shared are db's to mutate in place again —
// indexes intact, nothing cloned. Extents that an earlier, still unreleased
// snapshot shares carry an older ownership and stay copy-on-write, and a
// release out of order simply does nothing. Not calling Release is always
// safe; it only costs the clone.
func (db *DB) Release(snap *DB) {
	db.owner.CompareAndSwap(snap.lentTo, snap.lentFrom)
}

// Clone deep-copies the database eagerly (indexes are not copied). Most
// callers want Snapshot instead; Clone remains for tests and for callers
// that need a guaranteed-private copy regardless of mutation patterns.
func (db *DB) Clone() *DB {
	c := NewDB()
	for p, r := range db.rels {
		r = r.cowClone()
		r.owner = c.owner.Load()
		c.rels[p] = r
	}
	return c
}
