package datalog

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

// Cancellation must land mid-pipeline — inside one rule firing's
// enumeration, not just at round boundaries — and a half-consumed pipeline
// must leave the caller's EDB untouched and the maintained state usable.

// crossProductWorkload is a three-way cross product big enough that a single
// firing enumerates millions of candidate rows (far past pipeCancelStride),
// so a short deadline expires inside the pipeline.
func crossProductWorkload(n int64) (*Program, *DB) {
	prog := &Program{Rules: []Rule{{
		ID:   "x",
		Head: NewHead("X", HV("a"), HV("b"), HV("c")),
		Body: []Literal{
			Pos(NewAtom("A", V("a"))), Pos(NewAtom("B", V("b"))), Pos(NewAtom("C", V("c")))},
	}}}
	edb := NewDB()
	for i := int64(0); i < n; i++ {
		edb.AddTuple("A", schema.NewTuple(schema.Int(i)))
		edb.AddTuple("B", schema.NewTuple(schema.Int(i)))
		edb.AddTuple("C", schema.NewTuple(schema.Int(i)))
	}
	return prog, edb
}

func requireEDBUntouched(t *testing.T, edb *DB, n int) {
	t.Helper()
	for _, pred := range []string{"A", "B", "C"} {
		if got := edb.Rel(pred).Len(); got != n {
			t.Fatalf("EDB %s has %d facts after cancellation, want %d", pred, got, n)
		}
	}
	if got := edb.Rel("X").Len(); got != 0 {
		t.Fatalf("EDB gained %d derived X facts: snapshot isolation broken", got)
	}
}

func TestEvalCancellationMidPipeline(t *testing.T) {
	// The subtest is named for the sequential setting (parallelism=-1),
	// which is the only evaluation path.
	t.Run("parallelism=-1", func(t *testing.T) {
		prog, edb := crossProductWorkload(200) // 8M rows if run to completion
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
		defer cancel()
		res, err := EvalCtx(ctx, prog, edb, Options{})
		if err == nil {
			t.Skip("machine fast enough to finish 8M rows in 2ms; nothing to assert")
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
		if res != nil {
			t.Fatal("cancelled evaluation returned a non-nil DB")
		}
		requireEDBUntouched(t, edb, 200)
		// The same EDB must evaluate cleanly afterwards.
		small, smallEDB := crossProductWorkload(8)
		got, err := Eval(small, smallEDB, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Rel("X").Len() != 512 {
			t.Fatalf("post-cancel evaluation derived %d facts, want 512", got.Rel("X").Len())
		}
	})
}

func TestEvalPreCancelledContextTouchesNothing(t *testing.T) {
	prog, edb := crossProductWorkload(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EvalCtx(ctx, prog, edb, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	requireEDBUntouched(t, edb, 4)
}

func TestIncrementalCancellationLeavesStateUsable(t *testing.T) {
	// A cancelled propagation must leave the Incremental usable: the next
	// Insert on the same instance derives everything.
	prog := &Program{Rules: []Rule{{
		ID:   "pair",
		Head: NewHead("Pair", HV("x"), HV("y")),
		Body: []Literal{Pos(NewAtom("L", V("x"))), Pos(NewAtom("R", V("y")))},
	}}}
	edb := NewDB()
	for i := int64(0); i < 1500; i++ {
		edb.AddTuple("R", schema.NewTuple(schema.Int(i)))
	}
	inc, err := NewIncremental(prog, edb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Each L seed joins all 1500 R facts: one long round.
	batch := make([]Fact2, 0, 600)
	for i := int64(0); i < 600; i++ {
		batch = append(batch, Fact2{Pred: "L", Tuple: schema.NewTuple(schema.Int(i)),
			Prov: provenance.NewVar(provenance.Var(fmt.Sprint("l", i)))})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	if _, err := inc.Insert(ctx, batch); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want nil or context.DeadlineExceeded", err)
	}
	// Whatever the first insert managed, the next one must run in full.
	cs, err := inc.Insert(context.Background(), []Fact2{
		{Pred: "L", Tuple: schema.NewTuple(schema.Int(9999)), Prov: provenance.NewVar("fresh")},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + 1500 // the seed plus one Pair per R fact
	if len(cs) != want {
		t.Fatalf("follow-up insert reported %d changes, want %d", len(cs), want)
	}
	if got := inc.DB().Rel("Pair").Lookup([]int{0}, schema.NewTuple(schema.Int(9999))); len(got) != 1500 {
		t.Fatalf("follow-up insert derived %d pairs, want 1500", len(got))
	}
}
