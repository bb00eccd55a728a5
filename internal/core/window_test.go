package core

import (
	"context"
	"fmt"
	"testing"

	"orchestra/internal/exchange"
	"orchestra/internal/obs"
	"orchestra/internal/p2p"
	"orchestra/internal/recon"
	"orchestra/internal/workload"
)

// TestReconcileWindowEquivalence drains the same publication burst through
// peers configured with every ReconcileWindow shape — per-transaction
// batches, a small cap, and the whole backlog at once (unset and negative) —
// and checks they all converge to the identical instance. This is the
// batch-cap counterpart of the batched==sequential property: ApplyAll over
// consecutive sub-batches must equal one batched call. The batching rule
// itself is pinned through exchange_applyall_batch_txns: a positive window n
// cuts the backlog into batches of n, anything else hands it over whole.
func TestReconcileWindowEquivalence(t *testing.T) {
	sys, err := NewSystem(workload.Figure2Peers(), workload.Figure2Mappings())
	if err != nil {
		t.Fatal(err)
	}
	store := p2p.NewMemoryStore()
	alaska, err := NewPeer(workload.Alaska, sys, store, recon.TrustAll(1))
	if err != nil {
		t.Fatal(err)
	}
	// One multi-epoch burst: many published transactions across the mapped
	// relations, so windows of size 1 and 2 genuinely split it.
	const burst = 200
	for i := int64(0); i < burst; i++ {
		commit(t, alaska.NewTransaction().
			Insert("O", workload.OTuple(fmt.Sprintf("org%d", i), i)).
			Insert("P", workload.PTuple(fmt.Sprintf("prot%d", i), 100+i)).
			Insert("S", workload.STuple(i, 100+i, "ACGT")))
		publish(t, alaska)
	}

	windows := []int{1, 2, 0, -1}
	receivers := make([]*Peer, len(windows))
	for i, win := range windows {
		p, err := NewPeerWith(workload.Beijing, sys, store, recon.TrustAll(1),
			exchange.Config{ReconcileWindow: win})
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		p.SetObserver(reg, 0)
		rep, err := p.Reconcile(context.Background())
		if err != nil {
			t.Fatalf("window %d: %v", win, err)
		}
		if rep.Fetched != burst || len(rep.Accepted) != burst {
			t.Fatalf("window %d: fetched %d accepted %d, want %d/%d", win, rep.Fetched, len(rep.Accepted), burst, burst)
		}
		size := int64(burst)
		if win > 0 {
			size = int64(win)
		}
		h := reg.Snapshot().Histograms["exchange_applyall_batch_txns"]
		if h.Count != burst/size || h.Min != size || h.Max != size {
			t.Errorf("window %d: %d ApplyAll batches of %d..%d transactions, want %d of %d",
				win, h.Count, h.Min, h.Max, burst/size, size)
		}
		receivers[i] = p
	}
	for i := 1; i < len(receivers); i++ {
		if !receivers[0].Instance().Equal(receivers[i].Instance()) {
			t.Errorf("window %d instance (size %d) differs from window %d (size %d)",
				windows[i], instSize(receivers[i].Instance()),
				windows[0], instSize(receivers[0].Instance()))
		}
	}
	if n := receivers[0].Instance().Table("O").Len(); n != burst {
		t.Errorf("O has %d tuples, want %d", n, burst)
	}
}

// TestReconcileWindowAcrossRounds checks a fixed tiny window keeps working
// over multiple Reconcile rounds with interleaved publishes.
func TestReconcileWindowAcrossRounds(t *testing.T) {
	sys, err := NewSystem(workload.Figure2Peers(), workload.Figure2Mappings())
	if err != nil {
		t.Fatal(err)
	}
	store := p2p.NewMemoryStore()
	alaska, err := NewPeer(workload.Alaska, sys, store, recon.TrustAll(1))
	if err != nil {
		t.Fatal(err)
	}
	beijing, err := NewPeerWith(workload.Beijing, sys, store, recon.TrustAll(1),
		exchange.Config{ReconcileWindow: 1})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for i := int64(0); i < 3; i++ {
			commit(t, alaska.NewTransaction().
				Insert("O", workload.OTuple(fmt.Sprintf("r%d-o%d", round, i), int64(round)*10+i)))
			publish(t, alaska)
		}
		rep := reconcile(t, beijing)
		if rep.Fetched != 3 || len(rep.Accepted) != 3 {
			t.Fatalf("round %d: fetched %d accepted %d, want 3/3", round, rep.Fetched, len(rep.Accepted))
		}
	}
	if n := beijing.Instance().Table("O").Len(); n != 9 {
		t.Errorf("O has %d tuples after 3 rounds, want 9", n)
	}
}
