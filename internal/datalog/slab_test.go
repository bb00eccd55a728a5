package datalog

import (
	"fmt"
	"testing"

	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

func slabTuple(i int) schema.Tuple {
	return schema.NewTuple(schema.Int(int64(i)), schema.String(fmt.Sprintf("v%d", i)))
}

// Stored fact pointers must stay valid as slabs fill and new slabs start:
// the facts map and every index bucket hold *Fact into slab memory.
func TestSlabPointerStability(t *testing.T) {
	r := NewRel()
	const n = 3*relSlabSize + 17
	ptrs := make([]*Fact, 0, n)
	for i := 0; i < n; i++ {
		tu := slabTuple(i)
		r.put(tu, provenance.NewVar(provenance.Var(fmt.Sprintf("x%d", i))))
		ptrs = append(ptrs, r.facts[tu.Key()])
	}
	if r.Len() != n {
		t.Fatalf("Len = %d, want %d", r.Len(), n)
	}
	for i, f := range ptrs {
		if got := r.facts[slabTuple(i).Key()]; got != f {
			t.Fatalf("fact %d moved: %p != %p", i, got, f)
		}
		if !f.Tuple.Equal(slabTuple(i)) {
			t.Fatalf("fact %d corrupted: %v", i, f.Tuple)
		}
	}
}

// Removing a fact zeroes its slab slot so the dead entry stops pinning the
// tuple and annotation memory.
func TestSlabRemoveZeroesSlot(t *testing.T) {
	r := NewRel()
	tu := slabTuple(1)
	r.put(tu, provenance.NewVar("x"))
	f := r.facts[tu.Key()]
	r.remove(tu.Key())
	if r.Contains(tu) {
		t.Fatal("removed tuple still present")
	}
	if f.Tuple != nil || !f.Prov.IsZero() {
		t.Fatalf("dead slab slot not zeroed: %+v", *f)
	}
}

// Freed slots are reused by later insertions, so delete-heavy churn
// recycles slab capacity instead of pinning mostly dead slabs.
func TestSlabFreeSlotReuse(t *testing.T) {
	r := NewRel()
	r.put(slabTuple(1), provenance.NewVar("x"))
	f := r.facts[slabTuple(1).Key()]
	r.remove(slabTuple(1).Key())
	if len(r.free) != 1 {
		t.Fatalf("free list = %d entries, want 1", len(r.free))
	}
	used := len(r.slab)
	r.put(slabTuple(2), provenance.NewVar("y"))
	if got := r.facts[slabTuple(2).Key()]; got != f {
		t.Fatalf("freed slot not reused: %p vs %p", got, f)
	}
	if len(r.free) != 0 || len(r.slab) != used {
		t.Fatalf("reuse grew the slab: free=%d slab=%d (was %d)", len(r.free), len(r.slab), used)
	}
	if !f.Tuple.Equal(slabTuple(2)) {
		t.Fatalf("reused slot holds %v", f.Tuple)
	}
}

// A COW clone must land in one exactly-sized slab and stay independent of
// the original.
func TestSlabCowCloneDense(t *testing.T) {
	db := NewDB()
	const n = relSlabSize + 31
	for i := 0; i < n; i++ {
		db.Add("R", slabTuple(i), provenance.NewVar("x"))
	}
	snap := db.Snapshot()
	// First write after the snapshot clones the shard.
	db.Add("R", slabTuple(n), provenance.NewVar("y"))
	if got := snap.Rel("R").Len(); got != n {
		t.Fatalf("snapshot grew through COW boundary: %d", got)
	}
	if got := db.Rel("R").Len(); got != n+1 {
		t.Fatalf("post-clone extent = %d, want %d", got, n+1)
	}
	// The clone's facts live in a single contiguous slab (plus the one slab
	// started for the post-clone insert).
	if c := cap(db.Rel("R").slab); c != relSlabSize {
		t.Fatalf("current slab cap = %d, want fresh slab of %d", c, relSlabSize)
	}
	for i := 0; i <= n; i++ {
		if !db.Rel("R").Contains(slabTuple(i)) {
			t.Fatalf("clone lost tuple %d", i)
		}
	}
}

// Slabs double from one fact up to relSlabSize: a one-fact extent costs one
// fact of slab, and a large extent still allocates relSlabSize at a time.
func TestSlabGrowsGeometrically(t *testing.T) {
	r := NewRel()
	var caps []int
	for i := 0; i < 3*relSlabSize; i++ {
		r.put(slabTuple(i), provenance.NewVar("x"))
		if c := cap(r.slab); len(caps) == 0 || caps[len(caps)-1] != c {
			caps = append(caps, c)
		}
	}
	want := []int{}
	for c := 1; c <= relSlabSize; c *= 2 {
		want = append(want, c)
	}
	if fmt.Sprint(caps) != fmt.Sprint(want) {
		t.Fatalf("slab capacities %v, want %v", caps, want)
	}
}
