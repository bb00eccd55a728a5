package orchestra_test

import (
	"context"
	"fmt"
	"testing"

	"orchestra"
)

// triSchema is a three-peer identity confederation: alice and bob publish,
// carol receives from both.
func triSchema(t testing.TB) *orchestra.Schema {
	t.Helper()
	genes := orchestra.NewPeerSchema("genes")
	genes.MustAddRelation(orchestra.MustRelation("Gene",
		[]orchestra.Attribute{
			{Name: "name", Type: orchestra.KindString},
			{Name: "chromosome", Type: orchestra.KindInt},
		}, "name"))
	return orchestra.NewSchema().
		Peer("alice", genes).
		Peer("bob", genes).
		Peer("carol", genes).
		Identity("M_ac", "alice", "carol").
		Identity("M_bc", "bob", "carol")
}

func openTri(t testing.TB) (*orchestra.System, *orchestra.Peer, *orchestra.Peer, *orchestra.Peer) {
	t.Helper()
	sys, err := orchestra.Open(triSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	alice, err := sys.Peer("alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := sys.Peer("bob")
	if err != nil {
		t.Fatal(err)
	}
	carol, err := sys.Peer("carol")
	if err != nil {
		t.Fatal(err)
	}
	return sys, alice, bob, carol
}

// runBurst commits n transactions at each of alice and bob, then publishes
// and drains them to carol either one publish+reconcile round per
// transaction (sequential) or as one coalesced burst (grouped), returning
// the change stream carol's subscription observed.
func runBurst(t *testing.T, n int, grouped bool) []orchestra.Change {
	t.Helper()
	ctx := context.Background()
	_, alice, bob, carol := openTri(t)

	var got []orchestra.Change
	done := make(chan struct{})
	subCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	want := 2 * n // one derived insert at carol per published transaction
	// Subscribe registers before the first publish; the goroutine only
	// consumes.
	stream := carol.Subscribe(subCtx, orchestra.WithoutAutoReconcile())
	go func() {
		defer close(done)
		for c, err := range stream {
			if err != nil {
				return
			}
			got = append(got, c)
			if len(got) == want {
				return
			}
		}
	}()

	commit := func(p *orchestra.Peer, name string, i int) {
		t.Helper()
		if _, err := p.Begin().Insert("Gene", gene(fmt.Sprintf("%s%03d", name, i), int64(i))).Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if grouped {
		for i := 0; i < n; i++ {
			commit(alice, "A", i)
		}
		for i := 0; i < n; i++ {
			commit(bob, "B", i)
		}
		if _, published, err := alice.PublishAll(ctx); err != nil || published != n {
			t.Fatalf("alice.PublishAll = %d, %v; want %d", published, err, n)
		}
		if _, published, err := bob.PublishAll(ctx); err != nil || published != n {
			t.Fatalf("bob.PublishAll = %d, %v; want %d", published, err, n)
		}
		if _, err := carol.Reconcile(ctx); err != nil {
			t.Fatal(err)
		}
	} else {
		for i := 0; i < n; i++ {
			commit(alice, "A", i)
			if _, err := alice.Publish(ctx); err != nil {
				t.Fatal(err)
			}
			if _, err := carol.Reconcile(ctx); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			commit(bob, "B", i)
			if _, err := bob.Publish(ctx); err != nil {
				t.Fatal(err)
			}
			if _, err := carol.Reconcile(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	<-done
	return got
}

// A publication burst drained through one Reconcile must feed subscribers
// exactly the change stream per-transaction reconciliation does: same
// transactions, same tuples, same provenance. (Epochs differ by
// construction — coalescing archives many transactions per epoch — so they
// are not compared.)
func TestSubscriptionStreamEquivalenceGroupedReconcile(t *testing.T) {
	const n = 8
	seq := runBurst(t, n, false)
	bat := runBurst(t, n, true)
	if len(seq) != len(bat) {
		t.Fatalf("stream lengths differ: sequential %d vs grouped %d", len(seq), len(bat))
	}
	for i := range seq {
		s, g := seq[i], bat[i]
		if s.Txn != g.Txn || s.Local != g.Local || s.Rel != g.Rel || s.Op != g.Op {
			t.Fatalf("change %d differs:\n sequential=%+v\n grouped=%+v", i, s, g)
		}
		tupEq := func(a, b orchestra.Tuple) bool {
			if (a == nil) != (b == nil) {
				return false
			}
			return a == nil || a.Equal(b)
		}
		if !tupEq(s.Old, g.Old) || !tupEq(s.New, g.New) {
			t.Fatalf("change %d tuples differ:\n sequential=%+v\n grouped=%+v", i, s, g)
		}
		if !s.Prov.Equal(g.Prov) {
			t.Fatalf("change %d provenance differs:\n sequential=%v\n grouped=%v", i, s.Prov, g.Prov)
		}
	}
}

// ReconcileAll drains every open peer in one call, each peer's backlog in
// one round.
func TestReconcileAllDrainsBurst(t *testing.T) {
	ctx := context.Background()
	sys, alice, bob, carol := openTri(t)
	const n = 5
	for i := 0; i < n; i++ {
		if _, err := alice.Begin().Insert("Gene", gene(fmt.Sprintf("A%03d", i), int64(i))).Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if _, published, err := alice.PublishAll(ctx); err != nil || published != n {
		t.Fatalf("PublishAll = %d, %v; want %d", published, err, n)
	}
	reports, err := sys.ReconcileAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("reports for %d peers, want 3: %v", len(reports), reports)
	}
	if rep := reports["carol"]; rep == nil || len(rep.Accepted) != n {
		t.Fatalf("carol accepted %v, want %d transactions", reports["carol"], n)
	}
	for _, p := range []*orchestra.Peer{bob, carol} {
		rows, err := p.Rows("Gene")
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 0 && p == bob {
			t.Fatalf("bob should not receive alice's data (no mapping): %v", rows)
		}
		if p == carol && len(rows) != n {
			t.Fatalf("carol rows = %d, want %d", len(rows), n)
		}
	}
	// A second ReconcileAll is a no-op.
	reports, err = sys.ReconcileAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep := reports["carol"]; rep == nil || len(rep.Accepted) != 0 {
		t.Fatalf("second reconcile accepted %v, want none", reports["carol"])
	}
}
