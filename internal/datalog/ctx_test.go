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

// pathEDB seeds the transitive-closure program (tcProgram, eval_test.go)
// with a path of n edges: the fixpoint then needs one semi-naive iteration
// per hop, which is what the deadline tests lean on.
func pathEDB(n int) *DB {
	edb := NewDB()
	for i := 0; i < n; i++ {
		edb.Add("E", schema.NewTuple(schema.String(fmt.Sprint(i)), schema.String(fmt.Sprint(i+1))), provenance.One())
	}
	return edb
}

// TestEvalCtxExpiredBeforeFirstIteration: an already-expired context
// returns its error before a single iteration runs — the result database is
// never produced and the EDB is untouched.
func TestEvalCtxExpiredBeforeFirstIteration(t *testing.T) {
	edb := pathEDB(10)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Minute))
	defer cancel()
	res, err := EvalCtx(ctx, tcProgram(), edb, Options{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("EvalCtx = %v, want DeadlineExceeded", err)
	}
	if res != nil {
		t.Fatal("expired evaluation still returned a database")
	}
	if got := edb.Rel("T").Len(); got != 0 {
		t.Fatalf("expired evaluation derived %d tc facts into the EDB", got)
	}
}

// TestEvalCtxDeadlineStopsLongFixpoint: transitive closure over a long
// path needs one semi-naive iteration per hop; a short deadline stops it
// within one iteration instead of running all of them.
func TestEvalCtxDeadlineStopsLongFixpoint(t *testing.T) {
	prog, edb := tcProgram(), pathEDB(3000)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := EvalCtx(ctx, prog, edb, Options{Provenance: true})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("EvalCtx = %v, want DeadlineExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	t.Logf("deadline honored after %v", elapsed)
}

// TestIncrementalInsertExpiredContext: an expired context stops Insert
// before the seed merge mutates the maintained database.
func TestIncrementalInsertExpiredContext(t *testing.T) {
	inc, err := NewIncremental(tcProgram(), pathEDB(5), Options{Provenance: true})
	if err != nil {
		t.Fatal(err)
	}
	before := inc.DB().Rel("T").Len()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err = inc.Insert(ctx, []Fact2{{Pred: "E",
		Tuple: schema.NewTuple(schema.String("x"), schema.String("y")), Prov: provenance.NewVar("t")}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Insert = %v, want DeadlineExceeded", err)
	}
	if got := inc.DB().Rel("T").Len(); got != before {
		t.Fatalf("expired Insert changed the database: %d -> %d", before, got)
	}
	if inc.DB().Rel("E").Len() != 5 {
		t.Fatalf("expired Insert merged the seed fact")
	}
}
