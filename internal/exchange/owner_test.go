package exchange

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"orchestra/internal/datalog"
	"orchestra/internal/mapping"
	"orchestra/internal/schema"
	"orchestra/internal/updates"
	"orchestra/internal/workload"
)

// An owner's engine translates for its owner alone: for every transaction
// of a random history, its Result holds exactly the owner's entries of an
// owner-less engine's Result — updates (op, tuples, provenance) and
// dependencies, in order — and nothing for the owner's own transactions.
// The histories cover inserts, re-publishes, deletes and modifies of
// published and of derived tuples (§4.3), Skolem-valued tuples among them,
// on Figure 2 and on the Chain, Mesh and ChainJoinSplit topologies, at
// bounded and unbounded witness sets. The union databases stay identical.
func TestOwnerEngineEqualsFullCollation(t *testing.T) {
	fig2 := &workload.Topology{
		Names:    []string{workload.Alaska, workload.Beijing, workload.Crete, workload.Dresden},
		Peers:    workload.Figure2Peers(),
		Mappings: workload.Figure2Mappings(),
	}
	derivedDeletes, skolemUpdates := 0, 0
	for _, tc := range []struct {
		name string
		topo *workload.Topology
	}{
		{"fig2", fig2},
		{"chain", workload.Chain(3)},
		{"mesh", workload.Mesh(3)},
		{"chainjoinsplit", workload.ChainJoinSplit(4)},
	} {
		for _, bound := range []int{-1, 1, 8} {
			for trial := range 4 {
				d, s := checkOwnerEquivalence(t, fmt.Sprintf("%s bound %d trial %d", tc.name, bound, trial),
					tc.topo, bound, int64(7*trial+bound))
				derivedDeletes += d
				skolemUpdates += s
			}
		}
	}
	if derivedDeletes == 0 || skolemUpdates == 0 {
		t.Fatalf("histories deleted %d derived tuples and translated %d Skolem-valued updates; want some of each", derivedDeletes, skolemUpdates)
	}
}

// checkOwnerEquivalence runs one random history through an owner-less
// engine and one owner engine per peer, comparing every Result. It returns
// how many updates deleted a derived tuple, and how many translated updates
// carried a labeled null.
func checkOwnerEquivalence(t *testing.T, label string, topo *workload.Topology, bound int, seed int64) (derivedDeletes, skolemUpdates int) {
	t.Helper()
	ctx := context.Background()
	newEngine := func(owner string) *Engine {
		e, err := NewEngineWith(topo.Peers, topo.Mappings, Config{MaxMonomials: bound, Owner: owner})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	ref := newEngine("")
	owned := make([]*Engine, len(topo.Names))
	for i, n := range topo.Names {
		owned[i] = newEngine(n)
	}
	rng := rand.New(rand.NewSource(seed))
	seqs := map[string]uint64{}
	// Exact witness sets grow combinatorially on Figure 2's cycles through
	// the split mapping, so unbounded histories are shorter.
	n := 24
	if bound < 0 {
		n = 14
	}
	for i := range n {
		peer := topo.Names[rng.Intn(len(topo.Names))]
		seqs[peer]++
		tx := &updates.Transaction{ID: updates.TxnID{Peer: peer, Seq: seqs[peer]}}
		for j := range 1 + rng.Intn(3) {
			u, derived := randomUpdate(rng, ref, peer, topo.Peers[peer], fmt.Sprintf("%d_%d", i, j))
			if derived {
				derivedDeletes++
			}
			tx.Updates = append(tx.Updates, u)
		}
		want, err := ref.Apply(ctx, tx)
		if err != nil {
			t.Fatalf("%s: owner-less apply %s: %v", label, tx.ID, err)
		}
		for _, us := range want.PerPeer {
			for _, u := range us {
				if u.New.HasLabeledNull() {
					skolemUpdates++
				}
			}
		}
		for k, e := range owned {
			owner := topo.Names[k]
			got, err := e.Apply(ctx, tx)
			if err != nil {
				t.Fatalf("%s: %s's engine applying %s: %v", label, owner, tx.ID, err)
			}
			for p := range got.PerPeer {
				if p != owner {
					t.Fatalf("%s: %s's engine collated %s's updates for %s", label, owner, p, tx.ID)
				}
			}
			at := fmt.Sprintf("%s: %s at %s", label, tx.ID, owner)
			if owner == peer {
				if len(got.PerPeer[owner]) != 0 || len(got.ExtraDeps[owner]) != 0 {
					t.Fatalf("%s: own transaction translated: %v deps %v", at, got.PerPeer[owner], got.ExtraDeps[owner])
				}
				continue
			}
			updatesEqual(t, at, want.PerPeer[owner], got.PerPeer[owner])
			if !slices.Equal(want.ExtraDeps[owner], got.ExtraDeps[owner]) {
				t.Fatalf("%s: deps %v, owner-less %v", at, got.ExtraDeps[owner], want.ExtraDeps[owner])
			}
		}
	}
	for k, e := range owned {
		unionDBsEqual(t, label+" at "+topo.Names[k], ref, e)
	}
	return derivedDeletes, skolemUpdates
}

// An owner's engine logs only what collate reads at the owner: for the
// owner's own transactions nothing, and for every other transaction the
// owner-less engine's change log filtered to the fresh and removed facts of
// the owner's predicates, in the same order. The random histories insert,
// delete published tuples (DeleteBase), delete derived ones (Affected) and
// modify, on the Chain, Mesh and ChainJoinSplit topologies.
func TestOwnerChangeLog(t *testing.T) {
	ctx := context.Background()
	ops := map[string]int{}
	for _, tc := range []struct {
		name string
		topo *workload.Topology
	}{
		{"chain", workload.Chain(3)},
		{"mesh", workload.Mesh(3)},
		{"chainjoinsplit", workload.ChainJoinSplit(4)},
	} {
		for trial := range 3 {
			label := fmt.Sprintf("%s trial %d", tc.name, trial)
			topo := tc.topo
			newEngine := func(owner string) *Engine {
				e, err := NewEngineWith(topo.Peers, topo.Mappings, Config{Owner: owner})
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			ref := newEngine("")
			owned := make([]*Engine, len(topo.Names))
			for i, n := range topo.Names {
				owned[i] = newEngine(n)
			}
			rng := rand.New(rand.NewSource(int64(trial + 1)))
			seqs := map[string]uint64{}
			for i := range 24 {
				peer := topo.Names[rng.Intn(len(topo.Names))]
				seqs[peer]++
				tx := &updates.Transaction{ID: updates.TxnID{Peer: peer, Seq: seqs[peer]}}
				for j := range 1 + rng.Intn(3) {
					u, derived := randomUpdate(rng, ref, peer, topo.Peers[peer], fmt.Sprintf("%d_%d", i, j))
					switch {
					case u.Op == updates.OpInsert:
						ops["insert"]++
					case u.Op == updates.OpModify:
						ops["modify"]++
					case derived:
						ops["derived delete"]++
					default:
						ops["published delete"]++
					}
					tx.Updates = append(tx.Updates, u)
				}
				full, err := ref.changeLog(ctx, tx, map[updates.TxnID]bool{})
				if err != nil {
					t.Fatal(err)
				}
				for k, e := range owned {
					owner := topo.Names[k]
					got, err := e.changeLog(ctx, tx, map[updates.TxnID]bool{})
					if err != nil {
						t.Fatal(err)
					}
					var want []datalog.Change
					if owner != peer {
						for _, c := range full {
							if (c.Fresh || c.Removed) && strings.HasPrefix(c.Pred, owner+".") {
								want = append(want, c)
							}
						}
					}
					changesEqual(t, fmt.Sprintf("%s: %s at %s", label, tx.ID, owner), want, got)
				}
			}
		}
	}
	for _, op := range []string{"insert", "modify", "published delete", "derived delete"} {
		if ops[op] == 0 {
			t.Errorf("the histories drew no %s: %v", op, ops)
		}
	}
}

// changesEqual asserts two change logs are equal entry by entry.
func changesEqual(t *testing.T, label string, want, got []datalog.Change) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d changes, want %d\n want=%v\n got=%v", label, len(got), len(want), want, got)
	}
	for i, w := range want {
		g := got[i]
		if w.Pred != g.Pred || !w.Tuple.Equal(g.Tuple) || !w.Prov.Equal(g.Prov) || w.Fresh != g.Fresh || w.Removed != g.Removed {
			t.Fatalf("%s: change %d = %+v, want %+v", label, i, g, w)
		}
	}
}

// randomUpdate draws one update at peer: a fresh insert, or a re-publish,
// delete or modify of a tuple the union database holds in peer's schema —
// published there or derived there through the mappings. It reports whether
// the update deletes a tuple peer did not publish.
func randomUpdate(rng *rand.Rand, ref *Engine, peer string, s *schema.Schema, tag string) (updates.Update, bool) {
	rels := s.Relations()
	r := rels[rng.Intn(len(rels))]
	pred := mapping.Qualify(peer, r.Name)
	var held []schema.Tuple
	if db := ref.UnionDB(); db.Has(pred) {
		for _, f := range db.Rel(pred).Facts() {
			held = append(held, f.Tuple)
		}
	}
	if len(held) > 0 {
		tu := held[rng.Intn(len(held))]
		switch rng.Intn(5) {
		case 0:
			return updates.Insert(r.Name, tu), false
		case 1, 2:
			return updates.Delete(r.Name, tu), len(ref.baseTokens[pred+"/"+tu.Key()]) == 0
		case 3:
			nw := tu.Clone()
			for c := range nw {
				if !slices.Contains(r.KeyColumns(), c) {
					nw[c] = schema.String("M" + tag)
					break
				}
			}
			return updates.Modify(r.Name, tu, nw), false
		}
	}
	org, prot := workload.Organism(rng.Intn(4)), workload.Protein(rng.Intn(4))
	oid, pid := int64(rng.Intn(4)), int64(rng.Intn(4))
	var tu schema.Tuple
	switch r.Name {
	case "O":
		tu = workload.OTuple(org, oid)
	case "P":
		tu = workload.PTuple(prot, pid)
	case "S":
		tu = workload.STuple(oid, pid, "S"+tag)
	default:
		tu = workload.OPSTuple(org, prot, "Q"+tag)
	}
	return updates.Insert(r.Name, tu), false
}
