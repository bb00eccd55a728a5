package core

// Randomized end-to-end properties of the full CDSS stack.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"orchestra/internal/exchange"
	"orchestra/internal/p2p"
	"orchestra/internal/recon"
	"orchestra/internal/updates"
	"orchestra/internal/workload"
)

// TestQuickInsertOnlyConvergence: with trust-all policies and insert-only
// workloads (no conflicts by construction), every Σ1 peer converges to the
// same instance, and that instance matches the exchange engine's
// trust-everything materialization.
func TestQuickInsertOnlyConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 5; trial++ {
		topo := workload.Chain(3)
		sys, err := NewSystem(topo.Peers, topo.Mappings)
		if err != nil {
			t.Fatal(err)
		}
		store := p2p.NewMemoryStore()
		peers := make([]*Peer, 3)
		for i, name := range topo.Names {
			p, err := NewPeer(name, sys, store, recon.TrustAll(1))
			if err != nil {
				t.Fatal(err)
			}
			peers[i] = p
		}
		// Each peer inserts disjoint keys over several rounds, publishing
		// and reconciling in random order.
		key := int64(trial * 10000)
		for round := 0; round < 4; round++ {
			for _, p := range peers {
				n := rng.Intn(3) + 1
				tx := p.NewTransaction()
				for j := 0; j < n; j++ {
					tx.Insert("S", workload.STuple(key, key, workload.Sequence(key, key)))
					key++
				}
				if _, err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				if _, err := p.Publish(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			order := rng.Perm(len(peers))
			for _, i := range order {
				if _, err := peers[i].Reconcile(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
		}
		// One final catch-up round.
		for _, p := range peers {
			if _, err := p.Reconcile(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		for i := 1; i < len(peers); i++ {
			if !peers[0].Instance().Equal(peers[i].Instance()) {
				t.Fatalf("trial %d: %s (%d tuples) != %s (%d tuples)",
					trial, peers[0].Name(), instSize(peers[0].Instance()),
					peers[i].Name(), instSize(peers[i].Instance()))
			}
		}
		// Cross-check against the declarative materialization.
		eng, err := exchange.NewEngineWith(topo.Peers, topo.Mappings, exchange.Config{})
		if err != nil {
			t.Fatal(err)
		}
		txns, _, err := store.Since(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, txn := range txns {
			if _, err := eng.Apply(context.Background(), txn); err != nil {
				t.Fatal(err)
			}
		}
		mat, err := eng.MaterializePeer(context.Background(), topo.Names[0], func(updates.TxnID) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		if !mat.Equal(peers[0].Instance()) {
			t.Fatalf("trial %d: replay (%d tuples) != materialization (%d tuples)",
				trial, instSize(peers[0].Instance()), instSize(mat))
		}
	}
}

// TestQuickConflictingPublishersEventualAgreement: two publishers write the
// same keys with conflicting values; a set of equally-trusting subscribers
// defers, and after each resolves in favor of the SAME winner, all
// subscribers agree.
func TestQuickConflictingPublishersEventualAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 5; trial++ {
		topo := workload.Star(4) // hub + 3 spokes, all Σ1
		sys, err := NewSystem(topo.Peers, topo.Mappings)
		if err != nil {
			t.Fatal(err)
		}
		store := p2p.NewMemoryStore()
		all := map[string]*Peer{}
		for _, name := range topo.Names {
			p, err := NewPeer(name, sys, store, recon.TrustAll(1))
			if err != nil {
				t.Fatal(err)
			}
			all[name] = p
		}
		pub1, pub2 := all[topo.Names[1]], all[topo.Names[2]]
		nConf := 1 + rng.Intn(3)
		var firstIDs []updates.TxnID
		for c := 0; c < nConf; c++ {
			k := int64(c)
			t1, err := pub1.NewTransaction().
				Insert("S", workload.STuple(k, k, fmt.Sprintf("V1-%d", c))).Commit()
			if err != nil {
				t.Fatal(err)
			}
			firstIDs = append(firstIDs, t1.ID)
			if _, err := pub1.Publish(context.Background()); err != nil {
				t.Fatal(err)
			}
			if _, err := pub2.NewTransaction().
				Insert("S", workload.STuple(k, k, fmt.Sprintf("V2-%d", c))).Commit(); err != nil {
				t.Fatal(err)
			}
			if _, err := pub2.Publish(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		// The hub and third spoke reconcile, defer, and resolve every
		// conflict in favor of publisher 1.
		subs := []*Peer{all[topo.Names[0]], all[topo.Names[3]]}
		for _, s := range subs {
			if _, err := s.Reconcile(context.Background()); err != nil {
				t.Fatal(err)
			}
			for _, id := range firstIDs {
				if s.Status(id) == recon.StatusDeferred {
					if _, err := s.Resolve(context.Background(), id); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if !subs[0].Instance().Equal(subs[1].Instance()) {
			t.Fatalf("trial %d: subscribers disagree after identical resolutions", trial)
		}
		for c := 0; c < nConf; c++ {
			k := int64(c)
			if !instHas(subs[0].Instance(), "S", workload.STuple(k, k, fmt.Sprintf("V1-%d", c))) {
				t.Errorf("trial %d: winner's value missing for key %d", trial, c)
			}
		}
	}
}
