package orchestra_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"orchestra"
)

// TestSubscribeCancelMidStreamWhilePublishing races a publishing peer
// against a subscriber that cancels mid-stream: run under -race this
// exercises the apply hook, the auto-reconcile pump, and subscription
// teardown concurrently.
func TestSubscribeCancelMidStreamWhilePublishing(t *testing.T) {
	_, alice, bob := openGenes(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const total = 40
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // alice keeps publishing while bob's consumer lives and dies
		defer wg.Done()
		for i := 0; i < total; i++ {
			if _, err := alice.Begin().Insert("Gene", gene(fmt.Sprintf("G%03d", i), int64(i))).Commit(); err != nil {
				t.Errorf("commit %d: %v", i, err)
				return
			}
			if _, err := alice.Publish(context.Background()); err != nil {
				t.Errorf("publish %d: %v", i, err)
				return
			}
		}
	}()

	var got []orchestra.Change
	var finalErr error
	for c, err := range bob.Subscribe(ctx) {
		if err != nil {
			finalErr = err
			continue // the stream ends after the error event
		}
		got = append(got, c)
		if len(got) == 5 {
			cancel() // cancel mid-stream, while the publisher is still going
		}
	}
	if !errors.Is(finalErr, context.Canceled) {
		t.Fatalf("final subscription error = %v, want context.Canceled", finalErr)
	}
	if len(got) < 5 {
		t.Fatalf("received %d changes before cancel, want >= 5", len(got))
	}
	for _, c := range got {
		if c.Rel != "Gene" || c.Op != orchestra.OpInsert || c.Local {
			t.Fatalf("unexpected change %+v", c)
		}
	}
	wg.Wait()
}

// TestRowsConcurrentWithReconcile reads a peer's table while the
// subscription pump reconciles epochs into it — under -race this pins down
// the locked read path of Peer.Rows.
func TestRowsConcurrentWithReconcile(t *testing.T) {
	_, alice, bob := openGenes(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_ = bob.Subscribe(ctx) // starts the auto-reconcile pump; detached via ctx

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			if _, err := alice.Begin().Insert("Gene", gene(fmt.Sprintf("G%03d", i), int64(i))).Commit(); err != nil {
				t.Errorf("commit: %v", err)
				return
			}
			if _, err := alice.Publish(context.Background()); err != nil {
				t.Errorf("publish: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		if _, err := bob.Rows("Gene"); err != nil {
			t.Fatalf("rows: %v", err)
		}
	}
	wg.Wait()
}

// TestSubscribeDeliversLocalAndRemote checks the feed semantics: local
// publishes and reconciled remote epochs both arrive, collated per
// transaction, in order.
func TestSubscribeDeliversLocalAndRemote(t *testing.T) {
	ctx := context.Background()
	_, alice, bob := openGenes(t)
	subCtx, cancel := context.WithCancel(ctx)
	feed := bob.Subscribe(subCtx, orchestra.WithoutAutoReconcile())

	if _, err := alice.Begin().Insert("Gene", gene("BRCA1", 17)).Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Publish(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Begin().Modify("Gene", gene("BRCA1", 17), gene("BRCA1", 13)).Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Publish(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()

	var got []orchestra.Change
	var finalErr error
	for c, err := range feed {
		if err != nil {
			finalErr = err
			continue
		}
		got = append(got, c)
	}
	if !errors.Is(finalErr, context.Canceled) {
		t.Fatalf("final error = %v", finalErr)
	}
	if len(got) != 2 {
		t.Fatalf("feed = %+v, want remote insert then local modify", got)
	}
	if got[0].Local || got[0].Op != orchestra.OpInsert || got[0].Epoch != 1 {
		t.Fatalf("first change = %+v", got[0])
	}
	if !got[1].Local || got[1].Op != orchestra.OpModify || got[1].Epoch != 2 {
		t.Fatalf("second change = %+v", got[1])
	}
	if got[1].Prov.IsZero() {
		t.Fatalf("change lost provenance: %+v", got[1])
	}
}

// TestSubscribeWithRelationsFilters: a subscription restricted to other
// relations sees none of the changes one restricted to Gene sees.
func TestSubscribeWithRelationsFilters(t *testing.T) {
	ctx := context.Background()
	_, alice, bob := openGenes(t)
	subCtx, cancel := context.WithCancel(ctx)
	genes := bob.Subscribe(subCtx, orchestra.WithoutAutoReconcile(), orchestra.WithRelations("Gene"))
	others := bob.Subscribe(subCtx, orchestra.WithoutAutoReconcile(), orchestra.WithRelations("Protein"))
	if _, err := alice.Begin().Insert("Gene", gene("BRCA1", 17)).Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Publish(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	count := func(feed func(func(orchestra.Change, error) bool)) int {
		n := 0
		for _, err := range feed {
			if err == nil {
				n++
			}
		}
		return n
	}
	if n := count(genes); n != 1 {
		t.Errorf("Gene subscription saw %d changes, want 1", n)
	}
	if n := count(others); n != 0 {
		t.Errorf("Protein subscription saw %d changes, want 0", n)
	}
}

// TestSubscribeAutoReconcilePushes proves the push path: the subscriber
// never calls Reconcile, yet another peer's publish reaches it.
func TestSubscribeAutoReconcilePushes(t *testing.T) {
	ctx := context.Background()
	_, alice, bob := openGenes(t)
	subCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	feed := bob.Subscribe(subCtx)

	if _, err := alice.Begin().Insert("Gene", gene("BRCA1", 17)).Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Publish(ctx); err != nil {
		t.Fatal(err)
	}

	done := make(chan orchestra.Change, 1)
	go func() {
		for c, err := range feed {
			if err == nil {
				done <- c
				cancel()
				return
			}
		}
	}()
	select {
	case c := <-done:
		if c.Rel != "Gene" || !c.New.Equal(gene("BRCA1", 17)) {
			t.Fatalf("pushed change = %+v", c)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("auto-reconcile pump never delivered the published change")
	}
}

// TestSubscribeEndsOnClose proves System.Close ends active subscriptions
// with ErrClosed.
func TestSubscribeEndsOnClose(t *testing.T) {
	sys, _, bob := openGenes(t)
	feed := bob.Subscribe(context.Background())
	errs := make(chan error, 1)
	go func() {
		for _, err := range feed {
			if err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errs:
		if !errors.Is(err, orchestra.ErrClosed) {
			t.Fatalf("subscription ended with %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("subscription did not end on Close")
	}
}
