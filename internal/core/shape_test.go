package core

import (
	"context"
	"fmt"
	"testing"

	"orchestra/internal/datalog"
	"orchestra/internal/obs"
	"orchestra/internal/schema"
	"orchestra/internal/workload"
)

// The shape cache never holds more than queryShapeCap entries, however many
// distinct shapes a peer is asked; each one is compiled exactly once.
func TestQueryShapeCacheBounded(t *testing.T) {
	peers, _ := fig2(t)
	alaska := peers[workload.Alaska]
	reg := obs.NewRegistry()
	alaska.SetObserver(reg, 0)
	commit(t, alaska.NewTransaction().Insert("O", workload.OTuple("mouse", 1)))
	const shapes = 1000
	for i := 0; i < shapes; i++ {
		ans, err := alaska.QueryGoal(context.Background(), GoalQuery{
			Goal: datalog.NewAtom("v", datalog.V("org")),
			Rules: []datalog.Rule{{
				ID:   fmt.Sprintf("v/%d", i),
				Head: datalog.NewHead("v", datalog.HV("org")),
				Body: []datalog.Literal{datalog.Pos(datalog.NewAtom("O", datalog.V("org"), datalog.V("oid")))},
			}},
		})
		if err != nil || len(ans) != 1 {
			t.Fatalf("shape %d: answers %v, err %v", i, ans, err)
		}
		if n := len(alaska.shapes); n > queryShapeCap {
			t.Fatalf("after %d shapes the cache holds %d, over its capacity %d", i+1, n, queryShapeCap)
		}
	}
	if n := reg.Snapshot().Counters["core_query_prepares_total"]; n != shapes {
		t.Fatalf("core_query_prepares_total = %d, want %d", n, shapes)
	}
}

// BenchmarkQueryGoal times one bound recursive goal query on a peer: cold
// asks a new shape every time (a fresh view rule id), warm asks one shape
// with a new constant every time.
func BenchmarkQueryGoal(b *testing.B) {
	peers, _ := fig2(b)
	alaska := peers[workload.Alaska]
	tx := alaska.NewTransaction()
	for i := int64(0); i < 64; i++ {
		tx.Insert("S", workload.STuple(i, i+1, "ACGT"))
	}
	commit(b, tx)
	query := func(id string, src int64) GoalQuery {
		return GoalQuery{
			Goal: datalog.NewAtom("linked", datalog.C(schema.Int(src)), datalog.V("x")),
			Rules: []datalog.Rule{
				{ID: id + "/0", Head: datalog.NewHead("linked", datalog.HV("a"), datalog.HV("b")),
					Body: []datalog.Literal{datalog.Pos(datalog.NewAtom("S", datalog.V("a"), datalog.V("b"), datalog.V("s")))}},
				{ID: id + "/1", Head: datalog.NewHead("linked", datalog.HV("a"), datalog.HV("c")),
					Body: []datalog.Literal{
						datalog.Pos(datalog.NewAtom("linked", datalog.V("a"), datalog.V("b"))),
						datalog.Pos(datalog.NewAtom("S", datalog.V("b"), datalog.V("c"), datalog.V("s")))}},
			},
		}
	}
	run := func(b *testing.B, id func(i int) string) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ans, err := alaska.QueryGoal(context.Background(), query(id(i), int64(56+i%8)))
			if err != nil || len(ans) != 8-i%8 {
				b.Fatalf("answers %v, err %v", ans, err)
			}
		}
	}
	b.Run("cold", func(b *testing.B) { run(b, func(i int) string { return fmt.Sprintf("linked%d", i) }) })
	b.Run("warm", func(b *testing.B) { run(b, func(int) string { return "linked" }) })
}
