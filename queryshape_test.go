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

// sdkWarmQueryAllocs bounds what a warm query costs through the builder:
// the Query itself, and the answers (their slice and one array of values).
// Building the query allocates nothing else, evaluation reads the instance
// in place, and the query's span, with metrics on, allocates nothing.
const sdkWarmQueryAllocs = 3

// A warm query asked through Peer.Query(...).Rule(...).All() — a point
// join and a recursive reach, each with alternating constants — allocates
// only the Query and its answers, with metrics off and with metrics on
// (the default), where the query also records its span and counters.
func TestWarmSDKQueryAllocs(t *testing.T) {
	if !poolKeeps() {
		t.Skip("sync.Pool drops what it is given (as under the race detector), so pooled provenance scratch allocates")
	}
	for _, metrics := range []bool{false, true} {
		t.Run(fmt.Sprintf("metrics=%v", metrics), func(t *testing.T) {
			warmSDKQueryAllocs(t, metrics)
		})
	}
}

// warmSDKQueryAllocs is TestWarmSDKQueryAllocs on a system with metrics
// on or off.
func warmSDKQueryAllocs(t *testing.T, metrics bool) {
	_, alice := graphSystem(t, orchestra.WithMetrics(metrics))
	ctx := context.Background()
	srcs := [2]string{"ann", "bea"}
	for _, c := range []struct {
		name string
		ask  func(src string) ([]orchestra.Answer, error)
		want [2]int
	}{
		{"point", func(src string) ([]orchestra.Answer, error) {
			return alice.Query(ctx, "two", orchestra.Bind(orchestra.String(src)), orchestra.Free("z")).
				Rule("two", []string{"x", "z"},
					orchestra.Atom("Follows", orchestra.Free("x"), orchestra.Free("y")),
					orchestra.Atom("Follows", orchestra.Free("y"), orchestra.Free("z"))).
				All()
		}, [2]int{1, 1}},
		{"reach", func(src string) ([]orchestra.Answer, error) {
			return reachQuery(alice, ctx, src).All()
		}, [2]int{3, 2}},
	} {
		i := 0
		ask := func() {
			ans, err := c.ask(srcs[i%2])
			if err != nil || len(ans) != c.want[i%2] {
				t.Fatalf("%s: %d answers, err %v; want %d", c.name, len(ans), err, c.want[i%2])
			}
			i++
		}
		ask()
		ask()
		if n := testing.AllocsPerRun(100, ask); n > sdkWarmQueryAllocs {
			t.Errorf("a warm %s query through the SDK allocates %v times, want at most %d", c.name, n, sdkWarmQueryAllocs)
		} else {
			t.Logf("a warm %s query through the SDK allocates %v times", c.name, n)
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

// opsSystem opens one peer holding the OPS instance the benchmark's
// query-point workload asks: organisms O(org, oid), proteins P(prot, pid)
// and sequences S(oid, pid, seq), whose S(i, i+1) rows chain the
// organisms 0..3.
func opsSystem(t *testing.T) *orchestra.Peer {
	t.Helper()
	s := orchestra.NewPeerSchema("ops")
	s.MustAddRelation(orchestra.MustRelation("O",
		[]orchestra.Attribute{{Name: "org", Type: orchestra.KindString}, {Name: "oid", Type: orchestra.KindInt}}, "oid"))
	s.MustAddRelation(orchestra.MustRelation("P",
		[]orchestra.Attribute{{Name: "prot", Type: orchestra.KindString}, {Name: "pid", Type: orchestra.KindInt}}, "pid"))
	s.MustAddRelation(orchestra.MustRelation("S",
		[]orchestra.Attribute{{Name: "oid", Type: orchestra.KindInt}, {Name: "pid", Type: orchestra.KindInt}, {Name: "seq", Type: orchestra.KindString}}, "oid", "pid"))
	sys, err := orchestra.Open(orchestra.NewSchema().Peer("ops", s))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	p, err := sys.Peer("ops")
	if err != nil {
		t.Fatal(err)
	}
	tx := p.Begin()
	for i := int64(0); i < 4; i++ {
		tx.Insert("O", orchestra.NewTuple(orchestra.String(fmt.Sprint("org", i)), orchestra.Int(i)))
		tx.Insert("P", orchestra.NewTuple(orchestra.String(fmt.Sprint("prot", i)), orchestra.Int(10+i)))
		tx.Insert("S", orchestra.NewTuple(orchestra.Int(i), orchestra.Int(10+i), orchestra.String("ACGT")))
		tx.Insert("S", orchestra.NewTuple(orchestra.Int(i), orchestra.Int(i+1), orchestra.String("link")))
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return p
}

// opsvQuery is query-point's point shape: the OPS join as a view, bound on
// the organism.
func opsvQuery(p *orchestra.Peer, org string) *orchestra.Query {
	return p.Query(context.Background(), "OPSV", orchestra.Bind(orchestra.String(org)), orchestra.Free("p"), orchestra.Free("s")).
		Rule("OPSV", []string{"o", "p", "s"},
			orchestra.Atom("O", orchestra.Free("o"), orchestra.Free("oid")),
			orchestra.Atom("P", orchestra.Free("p"), orchestra.Free("pid")),
			orchestra.Atom("S", orchestra.Free("oid"), orchestra.Free("pid"), orchestra.Free("s")))
}

// sReachQuery is query-point's recursive shape: reachability over S.
func sReachQuery(p *orchestra.Peer, src int64) *orchestra.Query {
	return p.Query(context.Background(), "reach", orchestra.Bind(orchestra.Int(src)), orchestra.Free("y")).
		Rule("reach", []string{"x", "y"},
			orchestra.Atom("S", orchestra.Free("x"), orchestra.Free("y"), orchestra.Free("s"))).
		Rule("reach", []string{"x", "z"},
			orchestra.Atom("reach", orchestra.Free("x"), orchestra.Free("y")),
			orchestra.Atom("S", orchestra.Free("y"), orchestra.Free("z"), orchestra.Free("s")))
}

// On both shapes the benchmark asks, goal-directed answers equal the full
// fixpoint's, rows, polynomials and order.
func TestBenchShapesMatchFullFixpoint(t *testing.T) {
	p := opsSystem(t)
	for i := int64(0); i < 5; i++ {
		for _, q := range []func() *orchestra.Query{
			func() *orchestra.Query { return opsvQuery(p, fmt.Sprint("org", i)) },
			func() *orchestra.Query { return sReachQuery(p, i) },
		} {
			got, err := q().All()
			if err != nil {
				t.Fatal(err)
			}
			want, err := q().FullFixpoint().All()
			if err != nil {
				t.Fatal(err)
			}
			requireSameAnswers(t, fmt.Sprint("source ", i), got, want)
		}
	}
}

// A QueryLiteral is a value: one literal serves queries of two shapes,
// and each answers as if the literal had been written out afresh.
func TestQueryLiteralReused(t *testing.T) {
	_, alice := graphSystem(t)
	ctx := context.Background()
	edge := orchestra.Atom("Follows", orchestra.Free("a"), orchestra.Free("b"))
	fresh := func() orchestra.QueryLiteral {
		return orchestra.Atom("Follows", orchestra.Free("a"), orchestra.Free("b"))
	}
	next := func() orchestra.QueryLiteral {
		return orchestra.Atom("Follows", orchestra.Free("b"), orchestra.Free("c"))
	}
	ask := func(src string, body ...orchestra.QueryLiteral) []orchestra.Answer {
		t.Helper()
		head := []string{"a", "b"}
		if len(body) > 1 {
			head = []string{"a", "c"}
		}
		ans, err := alice.Query(ctx, "v", orchestra.Bind(orchestra.String(src)), orchestra.Free("x")).
			Rule("v", head, body...).All()
		if err != nil {
			t.Fatal(err)
		}
		return ans
	}
	for _, src := range []string{"ann", "bea", "fay"} {
		requireSameAnswers(t, "out of "+src, ask(src, edge), ask(src, fresh()))
		requireSameAnswers(t, "two hops from "+src, ask(src, edge, next()), ask(src, fresh(), next()))
	}
	if got := ask("ann", edge, next()); len(got) != 1 || !got[0].Tuple[0].Equal(orchestra.String("cal")) {
		t.Fatalf("two hops from ann: %v, want [cal]", got)
	}
}

// A Query is a description, not a result: All and then Stream over one
// Query re-evaluate it, and Stream sees a row committed after All.
func TestQueryReevaluatesAcrossWrites(t *testing.T) {
	_, alice := graphSystem(t)
	q := reachQuery(alice, context.Background(), "ann")
	before, err := q.All()
	if err != nil || len(before) != 3 {
		t.Fatalf("All: %v, err %v; want 3 answers", before, err)
	}
	if _, err := alice.Begin().
		Insert("Follows", orchestra.NewTuple(orchestra.String("dan"), orchestra.String("eve"))).
		Commit(); err != nil {
		t.Fatal(err)
	}
	var after []orchestra.Answer
	for a, err := range q.Stream() {
		if err != nil {
			t.Fatal(err)
		}
		after = append(after, a)
	}
	if len(after) != 5 { // bea cal dan eve fay
		t.Fatalf("Stream after the write: %v; want 5 answers", after)
	}
}

// Malformed syntax the builder records without building rules is still
// refused with ErrInvalidQuery: an empty variable name in the goal, in a
// body atom, in a filter operand, and an empty head variable.
func TestQueryBuilderRefusesEmptyNames(t *testing.T) {
	_, alice := graphSystem(t)
	ctx := context.Background()
	edge := orchestra.Atom("Follows", orchestra.Free("a"), orchestra.Free("b"))
	for name, q := range map[string]*orchestra.Query{
		"goal": alice.Query(ctx, "Follows", orchestra.Free(""), orchestra.Free("b")),
		"atom": alice.Query(ctx, "v", orchestra.Free("a")).
			Rule("v", []string{"a"}, orchestra.Atom("Follows", orchestra.Free("a"), orchestra.Free(""))),
		"filter": alice.Query(ctx, "v", orchestra.Free("a")).
			Rule("v", []string{"a"}, edge, orchestra.Filter(orchestra.Free(""), orchestra.CmpEq, orchestra.Free("b"))),
		"head": alice.Query(ctx, "v", orchestra.Free("a")).
			Rule("v", []string{""}, edge),
	} {
		if _, err := q.All(); !errors.Is(err, orchestra.ErrInvalidQuery) {
			t.Errorf("%s: All = %v, want ErrInvalidQuery", name, err)
		}
		for _, err := range q.Stream() {
			if !errors.Is(err, orchestra.ErrInvalidQuery) {
				t.Errorf("%s: Stream = %v, want ErrInvalidQuery", name, err)
			}
		}
	}
}

// Queries read the instance in place while Rows readers and committers run
// beside them; under make race this is the data-race gate for the in-place
// read. Afterwards the shapes still answer as the full fixpoint does.
func TestQueryBesideRowsAndCommits(t *testing.T) {
	_, alice := graphSystem(t)
	ctx := context.Background()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			if _, err := alice.Begin().Insert("Follows",
				orchestra.NewTuple(orchestra.String("dan"), orchestra.String(fmt.Sprintf("r%d", i)))).Commit(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			if _, err := alice.Rows("Follows"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 60; i++ {
		if _, err := reachQuery(alice, ctx, []string{"ann", "cal"}[i%2]).All(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	got, err := reachQuery(alice, ctx, "ann").All()
	if err != nil {
		t.Fatal(err)
	}
	want, err := reachQuery(alice, ctx, "ann").FullFixpoint().All()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3+30 {
		t.Fatalf("%d answers after 30 new edges out of dan, want 33", len(got))
	}
	requireSameAnswers(t, "after the writes", got, want)
}
