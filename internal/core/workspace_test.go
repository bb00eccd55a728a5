package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"orchestra/internal/datalog"
	"orchestra/internal/datalog/magic"
	"orchestra/internal/workload"
)

// requireAnswers fails unless got and want hold the same tuples with the
// same polynomials, in the same order.
func requireAnswers(t *testing.T, what string, got, want []Answer) {
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

// A cached shape derives each query into the extents its last query left
// emptied. Asked with alternating constants while its peer reconciles
// another peer's inserts and deletes and commits its own rows in between,
// Figure 2's point shape (the OPS join as a view) and a recursive reach
// shape must answer, provenance included, as the full fixpoint and as a
// freshly prepared shape over the same instance do.
func TestWarmShapeAcrossWrites(t *testing.T) {
	peers, _ := fig2(t)
	alaska, beijing := peers[workload.Alaska], peers[workload.Beijing]
	ctx := context.Background()
	answered := 0
	check := func(what string, q GoalQuery) {
		t.Helper()
		got, err := beijing.QueryGoal(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		full := q
		full.Mode = FullFixpoint
		want, err := beijing.QueryGoal(ctx, full)
		if err != nil {
			t.Fatalf("%s: full fixpoint: %v", what, err)
		}
		requireAnswers(t, what+" against the full fixpoint", got, want)
		prep, err := magic.Prepare(q.Rules, q.Goal)
		if err != nil {
			t.Fatal(err)
		}
		var fresh []Answer
		beijing.local.EDB(func(edb *datalog.DB) {
			fresh, err = prep.Eval(ctx, magic.GoalConsts(nil, q.Goal), edb, datalog.Options{Provenance: true})
		})
		if err != nil {
			t.Fatalf("%s: fresh shape: %v", what, err)
		}
		requireAnswers(t, what+" against a fresh shape", got, fresh)
		answered += len(got)
	}
	const rounds = 12
	for r := int64(0); r < rounds; r++ {
		tx := alaska.NewTransaction().
			Insert("O", workload.OTuple(workload.Organism(int(r)), r)).
			Insert("P", workload.PTuple(workload.Protein(int(r)), r)).
			Insert("S", workload.STuple(r, r, "seq"))
		if r > 0 {
			tx.Insert("S", workload.STuple(r-1, r, "link"))
		}
		if r >= 3 {
			tx.Delete("S", workload.STuple(r-3, r-3, "seq"))
		}
		commit(t, tx)
		publish(t, alaska)
		reconcile(t, beijing)
		commit(t, beijing.NewTransaction().
			Insert("P", workload.PTuple(workload.Protein(int(r+100)), r+100)).
			Insert("S", workload.STuple(r, r+100, "local")))
		for _, c := range []int64{r, r / 2} {
			org := workload.Organism(int(c))
			check("OPSV("+org+")", opsvQuery(org))
			check("reach", linkedQuery("reach", c))
		}
	}
	if answered < 10*rounds {
		t.Fatalf("only %d answers over %d rounds: the checks compared too little", answered, rounds)
	}
}

// failingCtx reports err from its n-th Err call on, so a query stops at a
// deterministic point inside its fixpoint.
type failingCtx struct {
	context.Context
	n   atomic.Int64
	err error
}

func (c *failingCtx) Err() error {
	if c.n.Add(-1) < 0 {
		return c.err
	}
	return nil
}

// An evaluation that stops half-way leaves its workspace half-filled, so
// the shape must not keep it: after a cancelled query, and then after one
// whose deadline passes mid-fixpoint, each followed by a delete that cuts
// the chain inside what the stopped query had derived, the same shape
// answers as the full fixpoint does.
func TestWarmShapeAfterFailedQueries(t *testing.T) {
	peers, _ := fig2(t)
	alaska := peers[workload.Alaska]
	ctx := context.Background()
	const n = 40
	tx := alaska.NewTransaction()
	for i := int64(0); i < n; i++ {
		tx.Insert("S", workload.STuple(i, i+1, "ACGT"))
	}
	commit(t, tx)
	for _, c := range []struct {
		stop     error
		src, cut int64 // the query's source, and the edge cut from cut to cut+1
	}{{context.Canceled, 0, 5}, {context.DeadlineExceeded, 20, 25}} {
		probe := &failingCtx{Context: ctx}
		probe.n.Store(1 << 40)
		if _, err := alaska.QueryGoal(probe, linkedQuery("chain", c.src)); err != nil {
			t.Fatal(err)
		}
		checks := 1<<40 - probe.n.Load()
		stopped := &failingCtx{Context: ctx, err: c.stop}
		stopped.n.Store(checks / 2)
		if _, err := alaska.QueryGoal(stopped, linkedQuery("chain", c.src)); !errors.Is(err, c.stop) {
			t.Fatalf("query stopped after %d of %d checks: err = %v, want %v", checks/2, checks, err, c.stop)
		}
		commit(t, alaska.NewTransaction().Delete("S", workload.STuple(c.cut, c.cut+1, "ACGT")))
		for _, src := range []int64{c.src, n - 1} {
			got, err := alaska.QueryGoal(ctx, linkedQuery("chain", src))
			if err != nil {
				t.Fatal(err)
			}
			full := linkedQuery("chain", src)
			full.Mode = FullFixpoint
			want, err := alaska.QueryGoal(ctx, full)
			if err != nil {
				t.Fatal(err)
			}
			requireAnswers(t, fmt.Sprintf("after %v, from %d", c.stop, src), got, want)
		}
		if got, _ := alaska.QueryGoal(ctx, linkedQuery("chain", c.src)); len(got) != int(c.cut-c.src) {
			t.Fatalf("after %v: %d reaches %d nodes, want %d", c.stop, c.src, len(got), c.cut-c.src)
		}
	}
}
