package core

import (
	"fmt"
	"math/rand"
	"testing"

	"orchestra/internal/exchange"
	"orchestra/internal/obs"
	"orchestra/internal/p2p"
	"orchestra/internal/recon"
	"orchestra/internal/schema"
	"orchestra/internal/workload"
)

// TestReconcileBurstEqualsStepwise pins that a peer's instance is a function
// of the published history, not of how often the peer reconciled: one peer
// reconciles a 200-transaction burst in one round, its twin after every
// publish, and both must hold the same rows with the same provenance. Alaska
// and Beijing publish overlapping Σ1 rows, so Crete's joined OPS rows have
// several derivations, and a witness bound of 1 makes the one kept depend on
// the order the derivations arrive in.
func TestReconcileBurstEqualsStepwise(t *testing.T) {
	sys, err := NewSystem(workload.Figure2Peers(), workload.Figure2Mappings())
	if err != nil {
		t.Fatal(err)
	}
	store := p2p.NewMemoryStore()
	cfg := exchange.Config{MaxMonomials: 1}
	open := func(name string) *Peer {
		p, err := NewPeerWith(name, sys, store, recon.TrustAll(1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	publishers := []*Peer{open(workload.Alaska), open(workload.Beijing)}
	stepwise, burst := open(workload.Crete), open(workload.Crete)
	// Each reconcile with transactions to translate hands them all to one
	// ApplyAll and observes the batch size once.
	stepReg, burstReg := obs.NewRegistry(), obs.NewRegistry()
	stepwise.SetObserver(stepReg, 0)
	burst.SetObserver(burstReg, 0)

	// Every publisher draws from one pool of rows, each key with one value,
	// so publications overlap without ever conflicting.
	type row struct {
		rel string
		tu  schema.Tuple
	}
	var pool []row
	for i := range 10 {
		pool = append(pool,
			row{"O", workload.OTuple(workload.Organism(i), int64(i))},
			row{"P", workload.PTuple(workload.Protein(i), int64(i))})
		for j := range 10 {
			pool = append(pool, row{"S", workload.STuple(int64(i), int64(j), fmt.Sprintf("SEQ%d_%d", i, j))})
		}
	}
	rng := rand.New(rand.NewSource(7))
	published := make([]map[int]bool, len(publishers))
	for i := range published {
		published[i] = map[int]bool{}
	}
	const txns = 200
	for range txns {
		pi := rng.Intn(len(publishers))
		k := rng.Intn(len(pool))
		for published[pi][k] {
			k = rng.Intn(len(pool))
		}
		published[pi][k] = true
		commit(t, publishers[pi].NewTransaction().Insert(pool[k].rel, pool[k].tu))
		publish(t, publishers[pi])
		reconcile(t, stepwise)
	}
	if rep := reconcile(t, burst); rep.Fetched != txns || len(rep.Accepted) != txns {
		t.Fatalf("burst round fetched %d accepted %d, want %d/%d", rep.Fetched, len(rep.Accepted), txns, txns)
	}
	for _, c := range []struct {
		name          string
		reg           *obs.Registry
		count, single int64
	}{{"burst", burstReg, 1, txns}, {"stepwise", stepReg, txns, 1}} {
		h := c.reg.Snapshot().Histograms["exchange_applyall_batch_txns"]
		if h.Count != c.count || h.Min != c.single || h.Max != c.single {
			t.Errorf("%s: exchange_applyall_batch_txns count=%d min=%d max=%d, want %d observations of %d",
				c.name, h.Count, h.Min, h.Max, c.count, c.single)
		}
	}

	rows := stepwise.Instance().Table("OPS").Rows()
	if len(rows) == 0 || !stepwise.Instance().Equal(burst.Instance()) || !burst.Instance().Equal(stepwise.Instance()) {
		t.Fatalf("instances differ: stepwise %d rows, burst %d", instSize(stepwise.Instance()), instSize(burst.Instance()))
	}
	for _, r := range rows {
		sp, _, _ := stepwise.Explain("OPS", r.Tuple)
		bp, _, ok := burst.Explain("OPS", r.Tuple)
		if !ok || !sp.Equal(bp) {
			t.Errorf("OPS%v: stepwise provenance %v, burst %v", r.Tuple, sp, bp)
		}
	}
}
