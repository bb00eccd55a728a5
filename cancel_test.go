package orchestra_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"orchestra"
)

// TestReconcileExpiredContext: a fixpoint evaluation started with an
// already-expired context returns context.DeadlineExceeded without
// completing an iteration — bob's state must be untouched.
func TestReconcileExpiredContext(t *testing.T) {
	_, alice, bob := openGenes(t)
	if _, err := alice.Begin().Insert("Gene", gene("BRCA1", 17)).Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Publish(context.Background()); err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := bob.Reconcile(expired); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("reconcile with expired context = %v, want DeadlineExceeded", err)
	}
	rows, err := bob.Rows("Gene")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("bob applied %v despite the expired context", rows)
	}
	// A live context afterwards still works: nothing was corrupted.
	if _, err := bob.Reconcile(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rows, _ := bob.Rows("Gene"); len(rows) != 1 {
		t.Fatalf("recovery reconcile rows = %v", rows)
	}
}

// TestPublishExpiredContext: publish honors an expired deadline too, and
// the transactions stay queued for a later successful publish.
func TestPublishExpiredContext(t *testing.T) {
	_, alice, _ := openGenes(t)
	if _, err := alice.Begin().Insert("Gene", gene("BRCA1", 17)).Commit(); err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := alice.Publish(expired); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("publish with expired context = %v", err)
	}
	epoch, err := alice.Publish(context.Background())
	if err != nil || epoch != 1 {
		t.Fatalf("retry publish = (%d, %v), want (1, nil)", epoch, err)
	}
}

// TestReconcileDeadlineOnLongTranslation: a deadline set far below the
// translation's real cost makes Reconcile return DeadlineExceeded promptly
// instead of finishing the fixpoint.
func TestReconcileDeadlineOnLongTranslation(t *testing.T) {
	ctx := context.Background()
	// A wide identity confederation: one hub publish fans out through many
	// mapping rules, giving the fixpoint rounds enough jobs that the
	// per-job cancellation checks bite quickly.
	rel := orchestra.MustRelation("R",
		[]orchestra.Attribute{
			{Name: "k", Type: orchestra.KindInt},
			{Name: "v", Type: orchestra.KindString},
		}, "k")
	ps := orchestra.NewPeerSchema("wide")
	ps.MustAddRelation(rel)
	sch := orchestra.NewSchema().Peer("hub", ps)
	const spokes = 12
	for i := 0; i < spokes; i++ {
		name := fmt.Sprintf("spoke%02d", i)
		sch.Peer(name, ps).
			Identity(fmt.Sprintf("M_h%02d", i), "hub", name).
			Identity(fmt.Sprintf("M_%02dh", i), name, "hub")
	}
	sys, err := orchestra.Open(sch)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	hub, err := sys.Peer("hub")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := sys.Peer("spoke00")
	if err != nil {
		t.Fatal(err)
	}
	txn := hub.Begin()
	for i := 0; i < 3000; i++ {
		txn.Insert("R", orchestra.NewTuple(orchestra.Int(int64(i)), orchestra.String("v")))
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Publish(ctx); err != nil {
		t.Fatal(err)
	}

	short, cancel := context.WithTimeout(ctx, time.Millisecond)
	defer cancel()
	start := time.Now()
	_, rerr := sub.Reconcile(short)
	elapsed := time.Since(start)
	if !errors.Is(rerr, context.DeadlineExceeded) {
		t.Fatalf("reconcile under 1ms deadline = %v, want DeadlineExceeded", rerr)
	}
	// "Promptly" with a generous margin for slow CI machines: the full
	// translation takes much longer than this on the same hardware.
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	t.Logf("deadline honored after %v", elapsed)

	// A cancellation can abandon a transaction half-propagated; the next
	// Reconcile must rebuild the engine and deliver the complete epoch.
	report, err := sub.Reconcile(ctx)
	if err != nil {
		t.Fatalf("recovery reconcile: %v", err)
	}
	if len(report.Accepted) != 1 {
		t.Fatalf("recovery accepted %v", report.Accepted)
	}
	rows, err := sub.Rows("R")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3000 {
		t.Fatalf("recovery delivered %d of 3000 rows — partial translation leaked", len(rows))
	}
}
