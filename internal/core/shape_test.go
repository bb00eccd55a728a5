package core

import (
	"context"
	"fmt"
	"sync"
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

// queryBenchPeer is Alaska of Figure 2 with O(org_i, i) and S(i, i+1) for
// i < 64, P(prot_i, i) for i <= 64, and a separate chain of linkedLarge
// edges S(i, i+1) that starts at linkedLargeFrom.
func queryBenchPeer(tb testing.TB) *Peer {
	tb.Helper()
	peers, _ := fig2(tb)
	alaska := peers[workload.Alaska]
	tx := alaska.NewTransaction()
	for i := int64(0); i < 64; i++ {
		tx.Insert("S", workload.STuple(i, i+1, "ACGT"))
		tx.Insert("O", workload.OTuple(workload.Organism(int(i)), i))
	}
	for i := int64(0); i <= 64; i++ {
		tx.Insert("P", workload.PTuple(workload.Protein(int(i)), i))
	}
	for i := int64(0); i < linkedLarge; i++ {
		tx.Insert("S", workload.STuple(linkedLargeFrom+i, linkedLargeFrom+i+1, "ACGT"))
	}
	commit(tb, tx)
	return alaska
}

const (
	linkedLargeFrom = 1000
	linkedLarge     = 2000
)

// linkedQuery is the recursive goal linked(src, x) over S's edges, its view
// rules' ids prefixed with id.
func linkedQuery(id string, src int64) GoalQuery {
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

// opsvQuery is the point goal OPSV(org, p, s) over the three-way join of
// Figure 2's O, P and S.
func opsvQuery(org string) GoalQuery {
	return GoalQuery{
		Goal: datalog.NewAtom("OPSV", datalog.C(schema.String(org)), datalog.V("p"), datalog.V("s")),
		Rules: []datalog.Rule{{ID: "OPSV/0", Head: datalog.NewHead("OPSV", datalog.HV("o"), datalog.HV("p"), datalog.HV("s")),
			Body: []datalog.Literal{
				datalog.Pos(datalog.NewAtom("O", datalog.V("o"), datalog.V("oid"))),
				datalog.Pos(datalog.NewAtom("P", datalog.V("p"), datalog.V("pid"))),
				datalog.Pos(datalog.NewAtom("S", datalog.V("oid"), datalog.V("pid"), datalog.V("s")))}}},
	}
}

// BenchmarkQueryGoal times one goal query on a peer: cold asks a new
// recursive shape every time (a fresh view rule id), warm asks one
// recursive shape with a new constant every time, point-join3 one
// three-way-join point shape, and warm-after-large the recursive shape
// after one query of it derived linkedLarge answers, so each small query
// derives into extents with that capacity.
func BenchmarkQueryGoal(b *testing.B) {
	alaska := queryBenchPeer(b)
	run := func(b *testing.B, query func(i int) GoalQuery, want func(i int) int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ans, err := alaska.QueryGoal(context.Background(), query(i))
			if err != nil || len(ans) != want(i) {
				b.Fatalf("answers %v, err %v", ans, err)
			}
		}
	}
	chain := func(i int) int { return 8 - i%8 }
	b.Run("cold", func(b *testing.B) {
		run(b, func(i int) GoalQuery { return linkedQuery(fmt.Sprintf("linked%d", i), int64(56+i%8)) }, chain)
	})
	b.Run("warm", func(b *testing.B) {
		run(b, func(i int) GoalQuery { return linkedQuery("linked", int64(56+i%8)) }, chain)
	})
	b.Run("point-join3", func(b *testing.B) {
		run(b, func(i int) GoalQuery { return opsvQuery(workload.Organism(i % 64)) }, func(int) int { return 1 })
	})
	b.Run("warm-after-large", func(b *testing.B) {
		ans, err := alaska.QueryGoal(context.Background(), linkedQuery("large", linkedLargeFrom))
		if err != nil || len(ans) != linkedLarge {
			b.Fatalf("%d answers, err %v", len(ans), err)
		}
		b.ResetTimer()
		run(b, func(i int) GoalQuery { return linkedQuery("large", int64(56+i%8)) }, chain)
	})
}

// A warm goal query allocates its answers (their slice and one array of
// values) and nothing else: it reads the instance in place, and the
// shape's workspace holds the derived extents, the scratch and the derived
// tuples from one query to the next.
// Asked with alternating constants, a warm recursive query and a warm
// three-way-join point query each stay within warmQueryAllocs allocations.
func TestWarmQueryAllocs(t *testing.T) {
	const warmQueryAllocs = 2
	if !poolKeeps() {
		t.Skip("sync.Pool drops what it is given (as under the race detector), so pooled provenance scratch allocates")
	}
	alaska := queryBenchPeer(t)
	for _, c := range []struct {
		name    string
		queries [2]GoalQuery
		want    [2]int
	}{
		{"reach", [2]GoalQuery{linkedQuery("linked", 56), linkedQuery("linked", 60)}, [2]int{8, 4}},
		{"point", [2]GoalQuery{opsvQuery(workload.Organism(3)), opsvQuery(workload.Organism(4))}, [2]int{1, 1}},
	} {
		i := 0
		ask := func() {
			ans, err := alaska.QueryGoal(context.Background(), c.queries[i%2])
			if err != nil || len(ans) != c.want[i%2] {
				t.Fatalf("%s: %d answers, err %v; want %d", c.name, len(ans), err, c.want[i%2])
			}
			i++
		}
		ask()
		ask()
		if n := testing.AllocsPerRun(100, ask); n > warmQueryAllocs {
			t.Errorf("a warm %s query allocates %v times, want at most %d", c.name, n, warmQueryAllocs)
		} else {
			t.Logf("a warm %s query allocates %v times", c.name, n)
		}
	}
}

// poolKeeps reports whether a sync.Pool hands back what it was given.
func poolKeeps() bool {
	var p sync.Pool
	x := new(int)
	for range 100 {
		p.Put(x)
		if p.Get() != x {
			return false
		}
	}
	return true
}
