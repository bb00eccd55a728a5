package datalog

import (
	"fmt"
	"runtime"
	"testing"

	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

func slabTuple(i int) schema.Tuple {
	return schema.NewTuple(schema.Int(int64(i)), schema.String(fmt.Sprintf("v%d", i)))
}

// slotOf returns the slot holding t, failing the test if t is absent.
func slotOf(t *testing.T, r *Rel, tu schema.Tuple) uint32 {
	t.Helper()
	s, ok := r.find(tu.Hash(), tu)
	if !ok {
		t.Fatalf("%v not stored", tu)
	}
	return s
}

// removeTuple deletes tu from r, if present.
func removeTuple(r *Rel, tu schema.Tuple) {
	if s, ok := r.find(tu.Hash(), tu); ok {
		r.remove(s)
	}
}

// A fact keeps its slot as pages fill, the first page is reallocated, and
// new pages start: the membership table, the index chains and an
// incremental engine's token index all name facts by slot.
func TestSlabPointerStability(t *testing.T) {
	r := NewRel()
	const n = 3*relChunkSize + 17
	slots := make([]uint32, 0, n)
	for i := 0; i < n; i++ {
		tu := slabTuple(i)
		r.put(tu, provenance.NewVar(provenance.Var(fmt.Sprintf("x%d", i))))
		slots = append(slots, slotOf(t, r, tu))
	}
	if r.Len() != n {
		t.Fatalf("Len = %d, want %d", r.Len(), n)
	}
	for i, s := range slots {
		if got := slotOf(t, r, slabTuple(i)); got != s {
			t.Fatalf("fact %d moved: slot %d != %d", i, got, s)
		}
		if f := r.fact(s); !f.Tuple.Equal(slabTuple(i)) {
			t.Fatalf("fact %d corrupted: %v", i, f.Tuple)
		}
	}
	if len(r.facts.p) != 4 {
		t.Fatalf("%d pages for %d facts, want 4", len(r.facts.p), n)
	}
}

// Removing a fact zeroes its slot so the dead entry stops pinning the tuple
// and annotation memory.
func TestSlabRemoveZeroesSlot(t *testing.T) {
	r := NewRel()
	tu := slabTuple(1)
	r.put(tu, provenance.NewVar("x"))
	s := slotOf(t, r, tu)
	r.remove(s)
	if r.Contains(tu) || r.live(s) || r.Len() != 0 {
		t.Fatal("removed tuple still present")
	}
	if f := r.fact(s); f.Tuple != nil || !f.Prov.IsZero() {
		t.Fatalf("dead slot not zeroed: %+v", *f)
	}
}

// Freed slots are reused by later insertions, so delete-heavy churn
// recycles page capacity instead of pinning mostly dead pages.
func TestSlabFreeSlotReuse(t *testing.T) {
	r := NewRel()
	r.put(slabTuple(1), provenance.NewVar("x"))
	r.put(slabTuple(3), provenance.NewVar("z"))
	s := slotOf(t, r, slabTuple(1))
	r.remove(s)
	if len(r.free) != 1 {
		t.Fatalf("free list = %d entries, want 1", len(r.free))
	}
	used := r.meta.len()
	r.put(slabTuple(2), provenance.NewVar("y"))
	if got := slotOf(t, r, slabTuple(2)); got != s {
		t.Fatalf("freed slot %d not reused: got %d", s, got)
	}
	if len(r.free) != 0 || r.meta.len() != used {
		t.Fatalf("reuse grew the extent: free=%d slots=%d (was %d)", len(r.free), r.meta.len(), used)
	}
	if !r.Contains(slabTuple(3)) || r.Contains(slabTuple(1)) {
		t.Fatal("reuse disturbed membership")
	}
}

// A COW clone copies the arrays: both sides keep every fact at its slot,
// and a write on either side — an insertion, a removal, an in-place
// annotation change — is invisible to the other.
func TestSlabCowCloneDense(t *testing.T) {
	db := NewDB()
	const n = relChunkSize + 31
	for i := 0; i < n; i++ {
		db.Add("R", slabTuple(i), provenance.NewVar("x"))
	}
	db.Remove("R", slabTuple(5))
	snap := db.Snapshot()
	// First write after the snapshot clones the shard.
	db.Add("R", slabTuple(n), provenance.NewVar("y"))
	db.Add("R", slabTuple(0), provenance.NewVar("z"))
	snap.Remove("R", slabTuple(1))
	if got := snap.Rel("R").Len(); got != n-2 {
		t.Fatalf("snapshot extent = %d, want %d", got, n-2)
	}
	if got := db.Rel("R").Len(); got != n {
		t.Fatalf("post-clone extent = %d, want %d", got, n)
	}
	if slotOf(t, db.Rel("R"), slabTuple(7)) != slotOf(t, snap.Rel("R"), slabTuple(7)) {
		t.Fatal("clone moved a fact to another slot")
	}
	if f, _ := snap.Rel("R").Get(slabTuple(0)); f.Prov.String() != "x" {
		t.Fatalf("annotation change leaked into the snapshot: %s", f.Prov)
	}
	if !db.Rel("R").Contains(slabTuple(1)) || snap.Rel("R").Contains(slabTuple(n)) {
		t.Fatal("a write crossed the COW boundary")
	}
	for i := 0; i <= n; i++ {
		if want := i != 5; db.Rel("R").Contains(slabTuple(i)) != want {
			t.Fatalf("clone membership of tuple %d = %v, want %v", i, !want, want)
		}
	}
}

// The first page doubles from one fact up to relChunkSize: a one-fact
// extent costs one fact of storage, and a large extent allocates
// relChunkSize at a time.
func TestSlabGrowsGeometrically(t *testing.T) {
	r := NewRel()
	var caps []int
	for i := 0; i < 3*relChunkSize; i++ {
		r.put(slabTuple(i), provenance.NewVar("x"))
		if c := len(r.facts.p[0]); len(caps) == 0 || caps[len(caps)-1] != c {
			caps = append(caps, c)
		}
	}
	want := []int{}
	for c := 1; c <= relChunkSize; c *= 2 {
		want = append(want, c)
	}
	if fmt.Sprint(caps) != fmt.Sprint(want) {
		t.Fatalf("first page sizes %v, want %v", caps, want)
	}
	for i, pg := range r.facts.p[1:] {
		if len(pg) != relChunkSize {
			t.Fatalf("page %d holds %d, want %d", i+1, len(pg), relChunkSize)
		}
	}
}

// Growing an extent from n to 2n facts allocates the new pages of its slot
// arrays — facts, slot metadata, and the links of every built index — and
// what the membership table's own growth costs, and nothing beyond a small
// constant: no array the extent already holds is copied, as a slice grown
// by append would copy it about four times over.
func TestSlotArraysGrowWithoutCopying(t *testing.T) {
	const n = 32 * relChunkSize
	tuples := make([]schema.Tuple, 2*n)
	for i := range tuples {
		tuples[i] = slabTuple(i)
	}
	one := provenance.One().Intern()
	r := NewRel()
	table := map[uint64]uint32{} // grows as the extent's table does
	for _, tu := range tuples[:n] {
		r.insert(tu.Hash(), tu, one)
		table[tu.Hash()] = 0
	}
	r.ensureIndex(nil) // the full-scan chain: one chain, so no map growth
	tableBytes := allocBytes(func() {
		for _, tu := range tuples[n:] {
			table[tu.Hash()] = 0
		}
	})
	got := allocBytes(func() {
		for _, tu := range tuples[n:] {
			r.insert(tu.Hash(), tu, one)
		}
	})
	// A page costs its size class, which for facts, whose pages hold
	// pointers and so carry a malloc header, is more than its entries.
	pages := n / relChunkSize * allocBytes(func() {
		pageSink.facts = make([]Fact, relChunkSize)
		pageSink.meta = make([]slotMeta, relChunkSize)
		pageSink.links = make([]link, relChunkSize)
	})
	// Beyond the pages, only each array's list of pages grows. Copying on
	// growth would cost several times the pages.
	const slack = 16 << 10
	if got > pages+tableBytes+slack {
		t.Errorf("growing %d to %d facts allocated %d bytes, want at most %d (pages) + %d (hash table) + %d",
			n, 2*n, got, pages, tableBytes, slack)
	}
	if r.Len() != 2*n || len(r.Lookup(nil, nil)) != 2*n {
		t.Fatalf("extent holds %d facts, full scan %d, want %d", r.Len(), len(r.Lookup(nil, nil)), 2*n)
	}
}

// pageSink keeps the pages a test allocates only to weigh them.
var pageSink struct {
	facts []Fact
	meta  []slotMeta
	links []link
}

// allocBytes returns the bytes f allocates on the heap.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
