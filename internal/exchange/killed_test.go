package exchange

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"orchestra/internal/provenance"
	"orchestra/internal/updates"
	"orchestra/internal/workload"
)

// A deletion's kill is final: after every Apply of a random history, no
// annotation stored in the union database mentions a token some earlier
// deletion killed, so a restored engine needs no record of them. The
// histories insert, re-publish, delete and modify published and derived
// tuples on Figure 2, Mesh and ChainJoinSplit at bounded and unbounded
// witness sets, and halfway through each one the engine is replaced by a
// fresh one loaded from its SaveState; at the end its union database equals
// that of a twin that never went through a snapshot.
func TestKilledTokensLeaveEveryAnnotation(t *testing.T) {
	fig2 := &workload.Topology{
		Names:    []string{workload.Alaska, workload.Beijing, workload.Crete, workload.Dresden},
		Peers:    workload.Figure2Peers(),
		Mappings: workload.Figure2Mappings(),
	}
	kills, derivedDeletes := 0, 0
	for _, tc := range []struct {
		name string
		topo *workload.Topology
	}{
		{"fig2", fig2},
		{"mesh", workload.Mesh(3)},
		{"chainjoinsplit", workload.ChainJoinSplit(4)},
	} {
		for _, bound := range []int{-1, 1, 8} {
			for trial := range 3 {
				k, d := checkKillsAreFinal(t, fmt.Sprintf("%s bound %d trial %d", tc.name, bound, trial),
					tc.topo, bound, int64(11*trial+bound))
				kills += k
				derivedDeletes += d
			}
		}
	}
	if kills == 0 || derivedDeletes == 0 {
		t.Fatalf("histories killed %d tokens and deleted %d derived tuples; want some of each", kills, derivedDeletes)
	}
}

// checkKillsAreFinal runs one random history and returns how many tokens it
// killed and how many updates deleted a derived tuple.
func checkKillsAreFinal(t *testing.T, label string, topo *workload.Topology, bound int, seed int64) (kills, derivedDeletes int) {
	t.Helper()
	ctx := context.Background()
	newEngine := func() *Engine {
		e, err := NewEngineWith(topo.Peers, topo.Mappings, Config{MaxMonomials: bound})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e, twin := newEngine(), newEngine()
	rng := rand.New(rand.NewSource(seed))
	seqs := map[string]uint64{}
	// published holds every base token the history has minted. A token
	// leaves the base-token map only when a deletion kills it, so the
	// killed ones are those no longer in the map.
	published := map[provenance.Var]bool{}
	n := 24
	if bound < 0 {
		n = 14 // exact witness sets on Figure 2 grow combinatorially
	}
	for i := range n {
		if i == n/2 {
			blob, err := e.SaveState()
			if err != nil {
				t.Fatal(err)
			}
			e = newEngine()
			if err := e.LoadState(blob); err != nil {
				t.Fatalf("%s: LoadState: %v", label, err)
			}
		}
		peer := topo.Names[rng.Intn(len(topo.Names))]
		seqs[peer]++
		tx := &updates.Transaction{ID: updates.TxnID{Peer: peer, Seq: seqs[peer]}}
		for j := range 1 + rng.Intn(3) {
			u, derived := randomUpdate(rng, e, peer, topo.Peers[peer], fmt.Sprintf("%d_%d", i, j))
			if derived {
				derivedDeletes++
			}
			if u.Op != updates.OpDelete {
				published[tx.Token(len(tx.Updates))] = true
			}
			tx.Updates = append(tx.Updates, u)
		}
		for _, eng := range []*Engine{e, twin} {
			if _, err := eng.Apply(ctx, tx); err != nil {
				t.Fatalf("%s: apply %s: %v", label, tx.ID, err)
			}
		}
		killed := map[provenance.Var]bool{}
		for v := range published {
			killed[v] = true
		}
		for _, toks := range e.baseTokens {
			for _, v := range toks {
				delete(killed, v)
			}
		}
		kills = len(killed)
		db := e.inc.DB()
		for _, pred := range db.Preds() {
			for _, f := range db.Rel(pred).Facts() {
				for _, x := range f.Prov.Tokens() {
					if killed[x.Var()] {
						t.Fatalf("%s: after %s, %s%v @ %s mentions killed token %s", label, tx.ID, pred, f.Tuple, f.Prov, x.Var())
					}
				}
			}
		}
	}
	unionDBsEqual(t, label, twin, e)
	return kills, derivedDeletes
}
