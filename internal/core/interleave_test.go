package core

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"testing"

	"orchestra/internal/datalog"
	"orchestra/internal/provenance"
	"orchestra/internal/recon"
	"orchestra/internal/schema"
	"orchestra/internal/storage"
	"orchestra/internal/updates"
	"orchestra/internal/workload"
)

// interleaveSeeds is how many seeded schedules TestQueryEqualsInstance runs;
// CI runs the default set, and a local soak raises it
// (go test ./internal/core -run QueryEqualsInstance -interleave-seeds=300).
var interleaveSeeds = flag.Int("interleave-seeds", 24, "seeded schedules for TestQueryEqualsInstance")

// TestQueryEqualsInstance: the query path and the instance are one store, so
// under any interleaving of commits (insert, delete, key-replacing modify,
// provenance-merging re-insert), publishes, reconciles, resolves, and direct
// writes to Instance(), a goal query over R(x…) returns exactly
// Instance().Rows(R) — tuples and polynomials — at every peer
// after every step. The trust state and the instance move together too:
// after every step, a Resolve that fails included, every transaction a peer
// holds as Accepted has had its updates applied there. Instance snapshots
// held across the schedule pin the copy-on-write boundary in both
// directions: a held snapshot keeps answering Rows, Get and GetByKey as of
// the step it was taken, and writes into a snapshot never reach the live
// instance.
func TestQueryEqualsInstance(t *testing.T) {
	for seed := int64(1); seed <= int64(*interleaveSeeds); seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runInterleaving(t, seed) })
	}
}

// smallSeqs is the sequence alphabet of the seeded schedules.
var smallSeqs = []string{"AAAA", "CCCC", "GGGG"}

// randomSmallTuple draws a tuple of rel (a Figure 2 relation) from a small
// value space, so keys collide across peers and transactions.
func randomSmallTuple(rng *rand.Rand, rel *schema.Relation) schema.Tuple {
	seq := func() string { return smallSeqs[rng.Intn(len(smallSeqs))] }
	switch rel.Name {
	case "O":
		return workload.OTuple(workload.Organism(rng.Intn(3)), rng.Int63n(3))
	case "P":
		return workload.PTuple(workload.Protein(rng.Intn(3)), rng.Int63n(3))
	case "S":
		return workload.STuple(rng.Int63n(3), rng.Int63n(3), seq())
	default:
		return workload.OPSTuple(workload.Organism(rng.Intn(3)), workload.Protein(rng.Intn(3)), seq())
	}
}

// withNewValue keeps the tuple's key and changes a non-key column.
func withNewValue(rng *rand.Rand, rel *schema.Relation, tu schema.Tuple) schema.Tuple {
	out := tu.Clone()
	if rel.Name == "O" || rel.Name == "P" {
		out[0] = schema.String(out[0].Str() + "'")
	} else {
		out[len(out)-1] = schema.String(smallSeqs[rng.Intn(len(smallSeqs))] + "T")
	}
	return out
}

// heldSnapshot is an Instance.Snapshot with the rows it held when taken.
type heldSnapshot struct {
	peer, step int
	snap       *storage.Instance
	rows       map[string][]storage.Row
}

func runInterleaving(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	byName, _ := fig2(t)
	names := []string{workload.Alaska, workload.Beijing, workload.Crete, workload.Dresden}
	peers := make([]*Peer, len(names))
	for i, n := range names {
		peers[i] = byName[n]
	}
	randomTuple := func(rel *schema.Relation) schema.Tuple { return randomSmallTuple(rng, rel) }
	withNewValue := func(rel *schema.Relation, tu schema.Tuple) schema.Tuple { return withNewValue(rng, rel, tu) }
	randomRel := func(p *Peer) *schema.Relation {
		rels := p.Instance().Schema().Relations()
		return rels[rng.Intn(len(rels))]
	}
	// storedRow picks a stored row of rel, if any.
	storedRow := func(p *Peer, rel *schema.Relation) (schema.Tuple, bool) {
		rows, _ := p.Instance().Rows(rel.Name)
		if len(rows) == 0 {
			return nil, false
		}
		return rows[rng.Intn(len(rows))].Tuple, true
	}
	isKeyViolation := func(err error) bool {
		var kv *storage.ErrKeyViolation
		return errors.As(err, &kv)
	}
	deferred := make([][]updates.TxnID, len(peers))
	var held []heldSnapshot
	// applied[i] is every foreign transaction whose updates reached peer i's
	// instance, as the apply hook saw them go in.
	applied := make([]map[updates.TxnID]bool, len(peers))
	for i, p := range peers {
		seen := map[updates.TxnID]bool{}
		applied[i] = seen
		p.SetApplyHook(func(ev ApplyEvent) {
			if !ev.Local {
				seen[ev.Txn] = true
			}
		})
	}

	for step := 0; step < 60; step++ {
		pi := rng.Intn(len(peers))
		p := peers[pi]
		what := ""
		switch op := rng.Intn(10); {
		case op < 4:
			what = "commit"
			tx := p.NewTransaction()
			for n := 1 + rng.Intn(3); n > 0; n-- {
				rel := randomRel(p)
				old, ok := storedRow(p, rel)
				switch kind := rng.Intn(4); {
				case kind == 0 || !ok:
					tx.Insert(rel.Name, randomTuple(rel))
				case kind == 1:
					tx.Delete(rel.Name, old)
				case kind == 2:
					tx.Modify(rel.Name, old, withNewValue(rel, old))
				default: // identical re-insert: a second derivation of a stored row
					tx.Insert(rel.Name, old)
				}
			}
			if _, err := tx.Commit(); err != nil && !isKeyViolation(err) {
				t.Fatalf("step %d: commit at %s: %v", step, p.Name(), err)
			}
		case op < 6:
			what = "publish"
			if _, err := p.Publish(ctx); err != nil {
				t.Fatalf("step %d: publish at %s: %v", step, p.Name(), err)
			}
		case op < 8:
			what = "reconcile"
			rep, err := p.Reconcile(ctx)
			if err != nil {
				t.Fatalf("step %d: reconcile at %s: %v", step, p.Name(), err)
			}
			deferred[pi] = append(deferred[pi], rep.Deferred...)
		case op < 9:
			what = "resolve"
			for _, id := range deferred[pi] {
				if p.Status(id) == recon.StatusDeferred {
					// Resolve refuses a winner that has meanwhile lost to data
					// the peer accepted after deferring it, and then must have
					// changed nothing; the properties must hold whichever way
					// the decision went.
					if _, err := p.Resolve(ctx, id); err != nil {
						t.Logf("step %d: resolve %s at %s: %v", step, id, p.Name(), err)
					}
					break
				}
			}
		default:
			what = "direct write"
			rel := randomRel(p)
			if old, ok := storedRow(p, rel); ok && rng.Intn(2) == 0 {
				if _, err := p.Instance().Delete(rel.Name, old); err != nil {
					t.Fatalf("step %d: direct delete at %s: %v", step, p.Name(), err)
				}
			} else {
				v := provenance.NewVar(provenance.Var(fmt.Sprintf("oob%d", step)))
				if _, err := p.Instance().Upsert(rel.Name, randomTuple(rel), v); err != nil {
					t.Fatalf("step %d: direct insert at %s: %v", step, p.Name(), err)
				}
			}
		}

		// Sometimes hold a snapshot of a random peer, and sometimes write
		// into a fresh one: the live rows must not move.
		if rng.Intn(6) == 0 {
			hi := rng.Intn(len(peers))
			inst := peers[hi].Instance()
			h := heldSnapshot{peer: hi, step: step, snap: inst.Snapshot(), rows: map[string][]storage.Row{}}
			for _, rel := range inst.Schema().Relations() {
				h.rows[rel.Name], _ = inst.Rows(rel.Name)
			}
			held = append(held, h)
		}
		if rng.Intn(6) == 0 {
			inst := p.Instance()
			rel := randomRel(p)
			before, _ := inst.Rows(rel.Name)
			scratch := inst.Snapshot()
			if old, ok := storedRow(p, rel); ok {
				if _, err := scratch.Delete(rel.Name, old); err != nil {
					t.Fatal(err)
				}
				if _, err := scratch.Upsert(rel.Name, withNewValue(rel, old), provenance.NewVar("scratch")); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := scratch.Upsert(rel.Name, randomTuple(rel), provenance.NewVar("scratch")); err != nil {
				t.Fatal(err)
			}
			after, _ := inst.Rows(rel.Name)
			requireSameRows(t, fmt.Sprintf("step %d: %s.%s after a write into its snapshot", step, p.Name(), rel.Name), after, before)
		}

		for qi, q := range peers {
			for _, id := range q.state.IDs() {
				if id.Peer != q.Name() && q.Status(id) == recon.StatusAccepted && !applied[qi][id] {
					t.Fatalf("step %d (%s at %s): %s holds %s as accepted but never applied its updates", step, what, p.Name(), q.Name(), id)
				}
			}
			for _, rel := range q.Instance().Schema().Relations() {
				terms := make([]datalog.Term, rel.Arity())
				for i := range terms {
					terms[i] = datalog.V(fmt.Sprint("x", i))
				}
				ans, err := q.QueryGoal(ctx, GoalQuery{Goal: datalog.NewAtom(rel.Name, terms...)})
				if err != nil {
					t.Fatalf("step %d (%s at %s): query %s at %s: %v", step, what, p.Name(), rel.Name, q.Name(), err)
				}
				got := make([]storage.Row, len(ans))
				for i, a := range ans {
					got[i] = storage.Row{Tuple: a.Tuple, Prov: a.Prov}
				}
				// The instance stores the witness set the evaluator
				// computes: answer and row agree polynomial for polynomial.
				want, _ := q.Instance().Rows(rel.Name)
				requireSameRows(t, fmt.Sprintf("step %d (%s at %s): query %s at %s", step, what, p.Name(), rel.Name, q.Name()), got, want)
			}
		}
		for _, h := range held {
			label := fmt.Sprintf("step %d (%s at %s): snapshot of %s from step %d", step, what, p.Name(), names[h.peer], h.step)
			for _, rel := range h.snap.Schema().Relations() {
				got, _ := h.snap.Rows(rel.Name)
				requireSameRows(t, label+" Rows "+rel.Name, got, h.rows[rel.Name])
				tbl := h.snap.Table(rel.Name)
				for _, want := range h.rows[rel.Name] {
					for via, get := range map[string]func() (storage.Row, bool){
						"Get":      func() (storage.Row, bool) { return tbl.Get(want.Tuple) },
						"GetByKey": func() (storage.Row, bool) { return tbl.GetByKey(rel.KeyOf(want.Tuple)) },
					} {
						row, ok := get()
						if !ok || !row.Tuple.Equal(want.Tuple) || !row.Prov.Equal(want.Prov) {
							t.Fatalf("%s %s(%v) = %v %v, want %v", label, via, want.Tuple, row, ok, want)
						}
					}
				}
			}
		}
	}
}

// requireSameRows fails unless got and want hold the same tuples with equal
// annotations, in any order.
func requireSameRows(t *testing.T, label string, got, want []storage.Row) {
	t.Helper()
	byKey := make(map[string]storage.Row, len(want))
	for _, r := range want {
		byKey[r.Tuple.Key()] = r
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d\n got: %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for _, r := range got {
		w, ok := byKey[r.Tuple.Key()]
		if !ok {
			t.Fatalf("%s: unexpected row %v\n got: %v\nwant: %v", label, r.Tuple, got, want)
		}
		if !r.Prov.Equal(w.Prov) {
			t.Fatalf("%s: row %v annotated %v, want %v", label, r.Tuple, r.Prov, w.Prov)
		}
	}
}
