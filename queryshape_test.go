package orchestra_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"orchestra"
)

// requireSameAnswers fails unless got and want hold the same rows with the
// same polynomials, in the same order.
func requireSameAnswers(t *testing.T, what string, got, want []orchestra.Answer) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers, want %d\n got: %v\nwant: %v", what, len(got), len(want), got, want)
	}
	for i := range got {
		if !got[i].Tuple.Equal(want[i].Tuple) || !got[i].Prov.Equal(want[i].Prov) {
			t.Fatalf("%s: answer %d is %v %v, want %v %v", what, i, got[i].Tuple, got[i].Prov, want[i].Tuple, want[i].Prov)
		}
	}
}

// A query shape is compiled once: later queries that differ only in their
// constants (or variable names) reuse it, and a query of another shape
// compiles its own.
func TestQueryShapeCompiledOnce(t *testing.T) {
	sys, alice := graphSystem(t)
	ctx := context.Background()
	prepares := func() int64 { return sys.Metrics().Counters["core_query_prepares_total"] }
	for i, src := range []string{"ann", "bea", "eve", "nobody"} {
		got, err := reachQuery(alice, ctx, src).All()
		if err != nil {
			t.Fatal(err)
		}
		want, err := reachQuery(alice, ctx, src).FullFixpoint().All()
		if err != nil {
			t.Fatal(err)
		}
		requireSameAnswers(t, src, got, want)
		if n := prepares(); n != 1 {
			t.Fatalf("after %d queries of one shape: %d shapes compiled, want 1", i+1, n)
		}
	}
	// Another binding pattern is another shape; so is a stored-relation goal.
	if _, err := alice.Query(ctx, "Follows", orchestra.Free("x"), orchestra.Bind(orchestra.String("cal"))).All(); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Query(ctx, "Follows", orchestra.Free("y"), orchestra.Bind(orchestra.String("dan"))).All(); err != nil {
		t.Fatal(err)
	}
	if n := prepares(); n != 2 {
		t.Fatalf("%d shapes compiled, want 2", n)
	}
	// No write moved a relation size, so no kept plan was rebuilt either.
	if n, ok := sys.Metrics().Counters["core_query_replans_total"]; !ok || n != 0 {
		t.Errorf("core_query_replans_total = %d (exported %v), want 0", n, ok)
	}
}

// countdownCtx reports cancellation from its n-th Err call on, so a query
// stops at a deterministic point inside its fixpoint.
type countdownCtx struct {
	context.Context
	n atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// A query cancelled in the middle of its fixpoint leaves its compiled
// shape usable: the next query of that shape answers in full.
func TestQueryCancelledMidFixpointKeepsShape(t *testing.T) {
	sys, alice := graphSystem(t)
	tx := alice.Begin()
	for i := 0; i < 40; i++ {
		tx.Insert("Follows", orchestra.NewTuple(orchestra.String(fmt.Sprintf("n%d", i)), orchestra.String(fmt.Sprintf("n%d", i+1))))
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Count the checks a whole query makes, then stop one half-way.
	probe := &countdownCtx{Context: context.Background()}
	probe.n.Store(1 << 40)
	want, err := reachQuery(alice, probe, "n0").All()
	if err != nil {
		t.Fatal(err)
	}
	checks := 1<<40 - probe.n.Load()
	if checks < 10 {
		t.Fatalf("a 40-step recursive query made only %d context checks", checks)
	}
	cut := &countdownCtx{Context: context.Background()}
	cut.n.Store(checks / 2)
	if _, err := reachQuery(alice, cut, "n0").All(); !errors.Is(err, context.Canceled) {
		t.Fatalf("query cancelled after %d of %d checks: err = %v", checks/2, checks, err)
	}
	for _, src := range []string{"n0", "n20"} {
		got, err := reachQuery(alice, context.Background(), src).All()
		if err != nil {
			t.Fatal(err)
		}
		full, err := reachQuery(alice, context.Background(), src).FullFixpoint().All()
		if err != nil {
			t.Fatal(err)
		}
		requireSameAnswers(t, src, got, full)
	}
	if len(want) != 40 {
		t.Fatalf("n0 reaches %d nodes, want 40", len(want))
	}
	if n := sys.Metrics().Counters["core_query_prepares_total"]; n != 1 {
		t.Fatalf("%d shapes compiled, want 1", n)
	}
}

// Queries of two cached shapes run beside commits on the same peer; under
// make race this is the data-race gate for the shape cache and its plans.
// Afterwards both shapes still answer as the full fixpoint does.
func TestQueryConcurrentWithWrites(t *testing.T) {
	_, alice := graphSystem(t)
	ctx := context.Background()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			tx := alice.Begin().Insert("Follows",
				orchestra.NewTuple(orchestra.String(fmt.Sprintf("w%d", i)), orchestra.String(fmt.Sprintf("w%d", i+1))))
			if i%3 == 0 {
				tx.Insert("Follows", orchestra.NewTuple(orchestra.String("dan"), orchestra.String(fmt.Sprintf("w%d", i))))
			}
			if _, err := tx.Commit(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				src := []string{"ann", "cal", "w3", "eve"}[(r+i)%4]
				if _, err := reachQuery(alice, ctx, src).All(); err != nil {
					t.Error(err)
					return
				}
				if _, err := alice.Query(ctx, "Follows", orchestra.Bind(orchestra.String(src)), orchestra.Free("d")).All(); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	for _, src := range []string{"ann", "w3"} {
		got, err := reachQuery(alice, ctx, src).All()
		if err != nil {
			t.Fatal(err)
		}
		full, err := reachQuery(alice, ctx, src).FullFixpoint().All()
		if err != nil {
			t.Fatal(err)
		}
		requireSameAnswers(t, src, got, full)
	}
}
