package datalog

import (
	"context"
	"fmt"
	"testing"

	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

// A scoped evaluation reads what Eval computes, with and without a seed
// (here a seed that copies an EDB extent on write), over a large EDB and
// then over smaller ones, and the workspace it leaves behind holds
// capacity only: no EDB extent, fact, value or pipeline row, and every
// hash table and index chain empty, while the indexes themselves stay
// built.
func TestEvalScopedLeavesCapacityOnly(t *testing.T) {
	pp, err := Prepare(tcProgram())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := Options{Provenance: true}
	for _, n := range []int{60, 3, 1, 20} {
		for _, seeded := range []bool{false, true} {
			edb := NewDB()
			for i := 0; i < n; i++ {
				edb.Add("E", edge(fmt.Sprint(i), fmt.Sprint(i+1)), provenance.NewVar(provenance.Var(fmt.Sprint("e", i))))
			}
			ref, seedPred, seed := edb, "", schema.Tuple(nil)
			if seeded {
				seedPred, seed = "E", edge(fmt.Sprint(n), "end")
				ref = edb.Snapshot()
				ref.Set(seedPred, seed, provenance.One())
			}
			want, err := pp.Eval(ctx, ref, opts)
			if err != nil {
				t.Fatal(err)
			}
			read := false
			err = pp.EvalScoped(ctx, edb, seedPred, seed, opts, func(db *DB) {
				read = true
				got, want := db.Rel("T").Facts(), want.Rel("T").Facts()
				if len(got) != len(want) {
					t.Fatalf("n=%d seeded=%v: %d facts, want %d", n, seeded, len(got), len(want))
				}
				for i := range got {
					if !got[i].Tuple.Equal(want[i].Tuple) || !got[i].Prov.Equal(want[i].Prov) {
						t.Fatalf("n=%d seeded=%v: fact %d is %v %v, want %v %v", n, seeded, i, got[i].Tuple, got[i].Prov, want[i].Tuple, want[i].Prov)
					}
				}
			})
			if err != nil || !read {
				t.Fatalf("n=%d seeded=%v: read %v, err %v", n, seeded, read, err)
			}
			if got := edb.Rel("E").Len(); got != n {
				t.Fatalf("n=%d seeded=%v: the EDB's E holds %d facts after the evaluation, want %d", n, seeded, got, n)
			}
			requireCapacityOnly(t, pp.ws.Load())
		}
	}
}

// requireCapacityOnly fails unless ws holds no EDB extent and nothing a
// finished evaluation put in it.
func requireCapacityOnly(t *testing.T, ws *workspace) {
	t.Helper()
	if ws == nil {
		t.Fatal("no idle workspace after a successful evaluation")
	}
	own := ws.db.owner.Load()
	indexes := 0
	for p, r := range ws.db.rels {
		if r.owner != own {
			t.Errorf("%s: the workspace keeps an extent it does not own", p)
		}
		if r.n != 0 || r.meta.len() != 0 || len(r.table) != 0 || r.facts.len() != 0 || len(r.free) != 0 || r.clock != 0 {
			t.Errorf("%s: not empty: %d facts, %d slots, %d hashes, %d fact slots", p, r.n, r.meta.len(), len(r.table), r.facts.len())
		}
		for _, pg := range r.facts.p {
			for _, f := range pg {
				if f.Tuple != nil || !f.Prov.IsZero() {
					t.Fatalf("%s: a kept page still holds %v %v", p, f.Tuple, f.Prov)
				}
			}
		}
		for _, ci := range r.idx.byCols {
			indexes++
			if len(ci.chains) != 0 || ci.links.len() != 0 {
				t.Errorf("%s: index on %v keeps %d chains", p, ci.cols, len(ci.chains))
			}
		}
	}
	if indexes == 0 {
		t.Error("no derived extent kept its indexes")
	}
	for _, c := range ws.arena.chunks {
		for _, v := range c[:cap(c)] {
			if v != (schema.Value{}) {
				t.Fatalf("the arena still holds %v", v)
			}
		}
	}
	if ws.arena.used != 0 || !ws.sc.delta.empty() || !ws.sc.lists.empty() {
		t.Errorf("not empty: %d arena chunks in use, pending delta %v, lists %v", ws.arena.used, ws.sc.delta.preds, ws.sc.lists.preds)
	}
	for _, j := range ws.sc.jobs[:cap(ws.sc.jobs)] {
		if j.delta != nil {
			t.Fatal("a job still holds a delta list")
		}
	}
	for _, v := range append(ws.sc.pipe.env[:cap(ws.sc.pipe.env)], ws.sc.pipe.headBuf[:cap(ws.sc.pipe.headBuf)]...) {
		if v != (schema.Value{}) {
			t.Fatalf("a pipeline buffer still holds %v", v)
		}
	}
	for _, c := range ws.sc.pipe.cur[:cap(ws.sc.pipe.cur)] {
		if c.rel != nil || c.ci != nil || !c.prov.IsZero() {
			t.Fatal("a pipeline cursor still holds an extent or an annotation")
		}
	}
}
