package orchestra_test

// Goal-directed vs full-fixpoint query benchmarks over an E4-style 3-way
// mapping workload (DESIGN.md §2 E4, §7): a point query binding a single
// organism key against the OPS join view. The goal-directed path
// magic-rewrites the view for the binding and explores only the bound
// key's join partners; the full-fixpoint baseline materializes the whole
// view and filters. The CI bench-smoke job runs both; `make bench-query`
// compares them locally.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"orchestra"
)

const benchJoinRows = 2000

// benchJoinPeer opens a single-peer system with the E4 workload shape —
// dimension relations O (organism -> oid) and P (protein -> pid) joined by
// a fact relation S — and loads n S-rows plus matching dimensions.
func benchJoinPeer(b *testing.B, n int) (*orchestra.Peer, int) {
	b.Helper()
	ps := orchestra.NewPeerSchema("a")
	ps.MustAddRelation(orchestra.MustRelation("O",
		[]orchestra.Attribute{
			{Name: "org", Type: orchestra.KindString},
			{Name: "oid", Type: orchestra.KindInt},
		}, "org"))
	ps.MustAddRelation(orchestra.MustRelation("P",
		[]orchestra.Attribute{
			{Name: "prot", Type: orchestra.KindString},
			{Name: "pid", Type: orchestra.KindInt},
		}, "prot"))
	ps.MustAddRelation(orchestra.MustRelation("S",
		[]orchestra.Attribute{
			{Name: "oid", Type: orchestra.KindInt},
			{Name: "pid", Type: orchestra.KindInt},
			{Name: "seq", Type: orchestra.KindString},
		}, "oid", "pid"))
	sys, err := orchestra.Open(orchestra.NewSchema().Peer("a", ps))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { sys.Close() })
	peer, err := sys.Peer("a")
	if err != nil {
		b.Fatal(err)
	}
	keySpace := int(math.Ceil(math.Sqrt(float64(n))))
	tx := peer.Begin()
	for i := 0; i < keySpace; i++ {
		tx.Insert("O", orchestra.NewTuple(orchestra.String(fmt.Sprintf("org%d", i)), orchestra.Int(int64(i))))
	}
	for i := 0; i <= n/keySpace+1; i++ {
		tx.Insert("P", orchestra.NewTuple(orchestra.String(fmt.Sprintf("prot%d", i)), orchestra.Int(int64(i))))
	}
	for i := 0; i < n; i++ {
		tx.Insert("S", orchestra.NewTuple(
			orchestra.Int(int64(i%keySpace)), orchestra.Int(int64(i/keySpace)),
			orchestra.String(fmt.Sprintf("seq%d", i))))
	}
	if _, err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	return peer, keySpace
}

// opsPointQuery asks for the (protein, sequence) pairs of one organism
// through the OPS 3-way join view.
func opsPointQuery(peer *orchestra.Peer, org string) *orchestra.Query {
	return peer.Query(context.Background(), "OPS",
		orchestra.Bind(orchestra.String(org)), orchestra.Free("p"), orchestra.Free("s")).
		Rule("OPS", []string{"o", "p", "s"},
			orchestra.Atom("O", orchestra.Free("o"), orchestra.Free("oid")),
			orchestra.Atom("P", orchestra.Free("p"), orchestra.Free("pid")),
			orchestra.Atom("S", orchestra.Free("oid"), orchestra.Free("pid"), orchestra.Free("s")))
}

func runPointLookup(b *testing.B, full bool) {
	peer, keySpace := benchJoinPeer(b, benchJoinRows)
	// Warm the extents' probed indexes so both modes measure evaluation,
	// not the one-time index build.
	if _, err := opsPointQuery(peer, "org0").All(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := opsPointQuery(peer, fmt.Sprintf("org%d", i%keySpace))
		if full {
			q = q.FullFixpoint()
		}
		ans, err := q.All()
		if err != nil {
			b.Fatal(err)
		}
		if len(ans) == 0 {
			b.Fatal("no answers")
		}
	}
}

// BenchmarkQueryGoalDirectedPointLookup: single bound organism key over the
// 3-way join view, magic-rewritten (the demanded slice of the join).
func BenchmarkQueryGoalDirectedPointLookup(b *testing.B) { runPointLookup(b, false) }

// BenchmarkQueryFullFixpointPointLookup: the same query forced through the
// full-fixpoint baseline (materialize the whole OPS view, then filter).
func BenchmarkQueryFullFixpointPointLookup(b *testing.B) { runPointLookup(b, true) }

// The recursive pair: bounded reachability over a chain-with-branches
// graph, goal-directed from one source vs the full transitive closure.
func benchGraphPeer(b *testing.B, nodes int) *orchestra.Peer {
	b.Helper()
	ps := orchestra.NewPeerSchema("g")
	ps.MustAddRelation(orchestra.MustRelation("E",
		[]orchestra.Attribute{
			{Name: "src", Type: orchestra.KindInt},
			{Name: "dst", Type: orchestra.KindInt},
		}, "src", "dst"))
	sys, err := orchestra.Open(orchestra.NewSchema().Peer("g", ps))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { sys.Close() })
	peer, err := sys.Peer("g")
	if err != nil {
		b.Fatal(err)
	}
	tx := peer.Begin()
	// 50 disjoint chains of nodes/50 hops each: a bound source reaches only
	// its own chain's tail.
	chain := nodes / 50
	for c := 0; c < 50; c++ {
		for i := 0; i < chain-1; i++ {
			tx.Insert("E", orchestra.NewTuple(
				orchestra.Int(int64(c*chain+i)), orchestra.Int(int64(c*chain+i+1))))
		}
	}
	if _, err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	return peer
}

func reachableQuery(peer *orchestra.Peer, src int64) *orchestra.Query {
	return peer.Query(context.Background(), "reach",
		orchestra.Bind(orchestra.Int(src)), orchestra.Free("y")).
		Rule("reach", []string{"x", "y"},
			orchestra.Atom("E", orchestra.Free("x"), orchestra.Free("y"))).
		Rule("reach", []string{"x", "z"},
			orchestra.Atom("reach", orchestra.Free("x"), orchestra.Free("y")),
			orchestra.Atom("E", orchestra.Free("y"), orchestra.Free("z")))
}

func runReachability(b *testing.B, full bool) {
	peer := benchGraphPeer(b, 1000)
	if _, err := reachableQuery(peer, 0).All(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := reachableQuery(peer, int64((i%50)*20))
		if full {
			q = q.FullFixpoint()
		}
		ans, err := q.All()
		if err != nil {
			b.Fatal(err)
		}
		if len(ans) == 0 {
			b.Fatal("no answers")
		}
	}
}

// BenchmarkQueryGoalDirectedReachability: recursive reachability from one
// bound source; demand stays inside the source's component.
func BenchmarkQueryGoalDirectedReachability(b *testing.B) { runReachability(b, false) }

// BenchmarkQueryFullFixpointReachability: the same goal over the full
// transitive closure of every component.
func BenchmarkQueryFullFixpointReachability(b *testing.B) { runReachability(b, true) }
