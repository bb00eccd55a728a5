package datalog

import (
	"context"
	"fmt"
	"testing"

	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

func pairTuple(a, b int64) schema.Tuple { return schema.NewTuple(schema.Int(a), schema.Int(b)) }

// tupleList renders facts in the order given.
func tupleList(fs []Fact) string {
	out := make([]schema.Tuple, len(fs))
	for i, f := range fs {
		out[i] = f.Tuple
	}
	return fmt.Sprint(out)
}

// A bucket lists its facts in insertion order, whether its index was built
// lazily over facts already stored or maintained as they arrived — never in
// an order that depends on map iteration.
func TestLookupBucketsKeepInsertionOrder(t *testing.T) {
	r := NewRel()
	var want []Fact
	for i := int64(0); i < 50; i++ {
		tu := pairTuple(0, (i*7)%50)
		r.put(tu, provenance.One())
		want = append(want, Fact{Tuple: tu})
	}
	key := schema.NewTuple(schema.Int(0))
	if got := r.Lookup([]int{0}, key); tupleList(got) != tupleList(want) {
		t.Fatalf("lazily built bucket:\n got %s\nwant %s", tupleList(got), tupleList(want))
	}
	// Maintained from here on, across a removal and a reused slot.
	removeTuple(r, want[3].Tuple)
	want = append(want[:3], want[4:]...)
	tu := pairTuple(0, 100)
	r.put(tu, provenance.One())
	want = append(want, Fact{Tuple: tu})
	if got := r.Lookup([]int{0}, key); tupleList(got) != tupleList(want) {
		t.Fatalf("maintained bucket:\n got %s\nwant %s", tupleList(got), tupleList(want))
	}
	// A lazy build after a slot was reused still lists insertion order.
	if got := r.Lookup(nil, nil); tupleList(got) != tupleList(want) {
		t.Fatalf("full scan built after slot reuse:\n got %s\nwant %s", tupleList(got), tupleList(want))
	}
}

// Bulk removal from one large bucket unlinks each fact in O(1) and keeps
// every index: nothing is dropped and rebuilt, and the survivors keep
// their order.
func TestBulkRemoveKeepsIndex(t *testing.T) {
	r := NewRel()
	const n = 192
	for i := int64(0); i < n; i++ {
		r.put(pairTuple(0, i), provenance.One())
	}
	key := schema.NewTuple(schema.Int(0))
	if got := len(r.Lookup(nil, nil)); got != n {
		t.Fatalf("full scan = %d", got)
	}
	if got := len(r.Lookup([]int{0}, key)); got != n {
		t.Fatalf("col-0 probe = %d", got)
	}
	built := append([]*colIndex(nil), r.idx.byCols...)
	var want []Fact
	for i := int64(0); i < n; i++ {
		if i%3 == 1 {
			removeTuple(r, pairTuple(0, i))
		} else {
			want = append(want, Fact{Tuple: pairTuple(0, i)})
		}
	}
	if len(r.idx.byCols) != len(built) {
		t.Fatalf("%d indexes after bulk remove, want %d", len(r.idx.byCols), len(built))
	}
	for i, ci := range r.idx.byCols {
		if ci != built[i] {
			t.Fatalf("index %v was rebuilt", ci.cols)
		}
	}
	if got := r.Lookup(nil, nil); tupleList(got) != tupleList(want) {
		t.Fatalf("full scan after bulk remove:\n got %s\nwant %s", tupleList(got), tupleList(want))
	}
	if got := r.Lookup([]int{0}, key); tupleList(got) != tupleList(want) {
		t.Fatalf("col-0 probe after bulk remove:\n got %s\nwant %s", tupleList(got), tupleList(want))
	}
}

// An extent holding tuples of two arities must answer a probe on a column
// only the longer ones have with just the matching tuple, not panic
// projecting the shorter one.
func TestMixedArityLookup(t *testing.T) {
	db := NewDB()
	db.AddTuple("R", schema.NewTuple(schema.Int(1)))
	db.AddTuple("R", pairTuple(1, 2))
	db.AddTuple("R", pairTuple(1, 3))
	r := db.Rel("R")
	if got := r.Lookup([]int{1}, schema.NewTuple(schema.Int(2))); tupleList(got) != tupleList([]Fact{{Tuple: pairTuple(1, 2)}}) {
		t.Fatalf("probe on column 1 = %s", tupleList(got))
	}
	if got := len(r.Lookup([]int{0}, schema.NewTuple(schema.Int(1)))); got != 3 {
		t.Fatalf("probe on column 0 = %d facts, want 3", got)
	}
	// The evaluator probes the same index.
	p := &Program{Rules: []Rule{{ID: "q", Head: NewHead("Q", HV("x")), Body: []Literal{Pos(NewAtom("R", V("x"), C(schema.Int(2))))}}}}
	out, err := EvalCtx(context.Background(), p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := tupleList(out.Rel("Q").Facts()); got != tupleList([]Fact{{Tuple: schema.NewTuple(schema.Int(1))}}) {
		t.Fatalf("Q = %s", got)
	}
}

// FuzzRelOps drives an extent with put / remove / Get / Contains /
// Lookup / snapshot-then-mutate / reset operations decoded from the input,
// and checks each against a naive model: a slice of facts in insertion
// order. A bulk operation puts or removes a run of fresh tuples, so the
// extent's slot pages fill past the first, freed slots spread across
// pages for later puts to reuse, and reset and the copy-on-write clone run
// on extents of several pages.
func FuzzRelOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 3, 4, 4, 0, 1, 2, 1, 3, 3, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 0, 2, 5, 0, 3, 1, 0, 0, 4, 0, 1, 6, 0, 0})
	f.Add([]byte{0, 9, 9, 0, 9, 8, 5, 1, 0, 9, 9, 4, 9, 0, 0, 7, 7, 6, 2})
	f.Add([]byte{0, 1, 2, 0, 1, 3, 4, 1, 2, 2, 1, 2, 7, 0, 0, 0, 1, 3, 5, 1, 3, 0, 2, 2, 4, 0, 0})
	// 319 fresh tuples (past slot 256), every third out, two puts into
	// freed slots, a probe whose chain crosses pages, a snapshot, then
	// writes that clone the multi-page extent.
	f.Add([]byte{15, 0, 255, 15, 1, 0, 0, 1, 2, 0, 2, 3, 4, 2, 1, 6, 0, 0, 15, 0, 10, 15, 1, 1, 0, 3, 0, 4, 0, 0, 2, 1, 2})
	// A reset of a multi-page extent with freed slots, then refilled.
	f.Add([]byte{15, 0, 255, 15, 1, 2, 7, 0, 0, 15, 0, 200, 0, 1, 1, 15, 1, 1, 0, 2, 2, 4, 2, 2, 4, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		type mfact struct {
			tuple schema.Tuple
			prov  provenance.Poly
		}
		db := NewDB()
		var model []mfact
		var frozen *DB
		var frozenModel []mfact
		find := func(tu schema.Tuple) int {
			for i, m := range model {
				if m.tuple.Equal(tu) {
					return i
				}
			}
			return -1
		}
		// Bulk tuples are (4+k, k%5) for a counter k, so none collides with
		// another or with tupleAt's, and the model stays small enough to
		// check naively.
		const bulkOp, bulkMax = 15, 2000
		var fresh int64
		// Tuples come from a small space so operations collide; arity 1
		// and 2 share the extent.
		tupleAt := func(a, b byte) schema.Tuple {
			if b%5 == 4 {
				return schema.NewTuple(schema.Int(int64(a % 4)))
			}
			return pairTuple(int64(a%4), int64(b%5))
		}
		for i := 0; i+2 < len(ops); i += 3 {
			op, tu := ops[i]%8, tupleAt(ops[i+1], ops[i+2])
			if ops[i]%16 == bulkOp {
				op = bulkOp
			}
			switch op {
			case 0, 1: // put, annotated with a token per operation
				p := provenance.NewVar(provenance.Var(fmt.Sprintf("t%d", i)))
				db.Add("R", tu, p)
				if j := find(tu); j >= 0 {
					model[j].prov, _, _, _ = provenance.MergeWitness(model[j].prov, p, 0)
				} else {
					model = append(model, mfact{tuple: tu, prov: p})
				}
			case 2: // remove
				db.Remove("R", tu)
				if j := find(tu); j >= 0 {
					model = append(model[:j], model[j+1:]...)
				}
			case 3: // Get and Contains
				j := find(tu)
				got, ok := db.Rel("R").Get(tu)
				if ok != (j >= 0) || db.Rel("R").Contains(tu) != ok {
					t.Fatalf("op %d: membership of %v = %v, model %v", i, tu, ok, j >= 0)
				}
				if ok && !got.Prov.Equal(model[j].prov) {
					t.Fatalf("op %d: %v annotated %s, model %s", i, tu, got.Prov, model[j].prov)
				}
			case 4, 5: // Lookup on a column set, against the model's filter
				cols := [][]int{nil, {0}, {1}, {0, 1}}[ops[i+1]%4]
				if len(cols) > 0 && cols[len(cols)-1] >= len(tu) {
					continue // the probe values come from tu
				}
				vals := tu.Project(cols)
				var want []Fact
				for _, m := range model {
					if (len(cols) == 0 || cols[len(cols)-1] < len(m.tuple)) && projEqual(m.tuple, cols, vals) {
						want = append(want, Fact{Tuple: m.tuple})
					}
				}
				if got := db.Rel("R").Lookup(cols, vals); tupleList(got) != tupleList(want) {
					t.Fatalf("op %d: Lookup(%v, %v):\n got %s\nwant %s", i, cols, vals, tupleList(got), tupleList(want))
				}
			case 6: // snapshot; the frozen side must not move from here on
				frozen = db.Snapshot()
				frozenModel = append([]mfact(nil), model...)
			case 7: // reset, as a workspace empties an extent only it holds
				if frozen == nil {
					r := db.MutableRel("R")
					r.reset()
					model = nil
					for _, pg := range r.facts.p {
						for _, f := range pg {
							if f.Tuple != nil || !f.Prov.IsZero() {
								t.Fatalf("op %d: a page kept by reset still holds %v", i, f.Tuple)
							}
						}
					}
				}
			case bulkOp: // put 64..319 fresh tuples, or remove every third bulk tuple
				if ops[i+1]%2 == 0 {
					p := provenance.NewVar(provenance.Var(fmt.Sprintf("t%d", i)))
					for n := 64 + int(ops[i+2]); n > 0 && len(model) < bulkMax; n-- {
						tu := pairTuple(4+fresh, fresh%5)
						fresh++
						db.Add("R", tu, p)
						model = append(model, mfact{tuple: tu, prov: p})
					}
					break
				}
				k, kept := 0, model[:0:0]
				for _, m := range model {
					if m.tuple[0].IntVal() >= 4 {
						if k++; k%3 == int(ops[i+2]%3) {
							db.Remove("R", m.tuple)
							continue
						}
					}
					kept = append(kept, m)
				}
				model = kept
			}
			if db.Rel("R").Len() != len(model) {
				t.Fatalf("op %d: Len = %d, model %d", i, db.Rel("R").Len(), len(model))
			}
			if frozen != nil {
				fr := frozen.Rel("R")
				if fr.Len() != len(frozenModel) {
					t.Fatalf("op %d: snapshot Len = %d, model %d", i, fr.Len(), len(frozenModel))
				}
				scan := fr.Lookup(nil, nil)
				if len(scan) != len(frozenModel) {
					t.Fatalf("op %d: snapshot scan = %d facts, model %d", i, len(scan), len(frozenModel))
				}
				for j, m := range frozenModel {
					if got := scan[j]; !got.Tuple.Equal(m.tuple) || !got.Prov.Equal(m.prov) {
						t.Fatalf("op %d: snapshot fact %d = %v @ %s, model %v @ %s", i, j, got.Tuple, got.Prov, m.tuple, m.prov)
					}
				}
			}
		}
	})
}
