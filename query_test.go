package orchestra_test

import (
	"context"
	"errors"
	"testing"

	"orchestra"
)

// graphSystem opens a one-peer system holding a small directed graph: a
// path ann->bea->cal->dan plus a disconnected eve->fay edge.
func graphSystem(t *testing.T, opts ...orchestra.Option) (*orchestra.System, *orchestra.Peer) {
	t.Helper()
	links := orchestra.NewPeerSchema("links")
	links.MustAddRelation(orchestra.MustRelation("Follows",
		[]orchestra.Attribute{
			{Name: "src", Type: orchestra.KindString},
			{Name: "dst", Type: orchestra.KindString},
		}, "src", "dst"))
	sys, err := orchestra.Open(orchestra.NewSchema().Peer("alice", links), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	alice, err := sys.Peer("alice")
	if err != nil {
		t.Fatal(err)
	}
	tx := alice.Begin()
	for _, e := range [][2]string{{"ann", "bea"}, {"bea", "cal"}, {"cal", "dan"}, {"eve", "fay"}} {
		tx.Insert("Follows", orchestra.NewTuple(orchestra.String(e[0]), orchestra.String(e[1])))
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return sys, alice
}

// reachQuery builds the transitive-closure query bound to src.
func reachQuery(p *orchestra.Peer, ctx context.Context, src string) *orchestra.Query {
	return p.Query(ctx, "reach", orchestra.Bind(orchestra.String(src)), orchestra.Free("who")).
		Rule("reach", []string{"a", "b"},
			orchestra.Atom("Follows", orchestra.Free("a"), orchestra.Free("b"))).
		Rule("reach", []string{"a", "c"},
			orchestra.Atom("reach", orchestra.Free("a"), orchestra.Free("b")),
			orchestra.Atom("Follows", orchestra.Free("b"), orchestra.Free("c")))
}

func TestQueryGoalDirectedMatchesFullFixpoint(t *testing.T) {
	_, alice := graphSystem(t)
	ctx := context.Background()
	goal, err := reachQuery(alice, ctx, "ann").All()
	if err != nil {
		t.Fatal(err)
	}
	full, err := reachQuery(alice, ctx, "ann").FullFixpoint().All()
	if err != nil {
		t.Fatal(err)
	}
	if len(goal) != 3 || len(full) != 3 {
		t.Fatalf("goal=%v full=%v", goal, full)
	}
	for i := range goal {
		if !goal[i].Tuple.Equal(full[i].Tuple) || !goal[i].Prov.Equal(full[i].Prov) {
			t.Fatalf("answer %d diverges: %+v vs %+v", i, goal[i], full[i])
		}
	}
}

func TestQueryAnswersCarryProvenance(t *testing.T) {
	_, alice := graphSystem(t)
	ans, err := reachQuery(alice, context.Background(), "ann").All()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range ans {
		if a.Prov.IsZero() {
			t.Fatalf("answer %v has no provenance", a.Tuple)
		}
	}
}

func TestQueryBooleanGoal(t *testing.T) {
	_, alice := graphSystem(t)
	ctx := context.Background()
	yes, err := alice.Query(ctx, "Follows",
		orchestra.Bind(orchestra.String("ann")), orchestra.Bind(orchestra.String("bea"))).All()
	if err != nil || len(yes) != 1 || len(yes[0].Tuple) != 0 {
		t.Fatalf("boolean true: %v %v", yes, err)
	}
	no, err := alice.Query(ctx, "Follows",
		orchestra.Bind(orchestra.String("ann")), orchestra.Bind(orchestra.String("dan"))).All()
	if err != nil || len(no) != 0 {
		t.Fatalf("boolean false: %v %v", no, err)
	}
}

func TestQueryNegationAndFilter(t *testing.T) {
	_, alice := graphSystem(t)
	// Make ann<->bea reciprocal, then ask for sources of non-reciprocated
	// edges, filtering out "eve".
	if _, err := alice.Begin().
		Insert("Follows", orchestra.NewTuple(orchestra.String("bea"), orchestra.String("ann"))).
		Commit(); err != nil {
		t.Fatal(err)
	}
	ans, err := alice.Query(context.Background(), "nonrecip", orchestra.Free("x")).
		Rule("nonrecip", []string{"x"},
			orchestra.Atom("Follows", orchestra.Free("x"), orchestra.Free("y")),
			orchestra.Not("Follows", orchestra.Free("y"), orchestra.Free("x")),
			orchestra.Filter(orchestra.Free("x"), orchestra.CmpNe, orchestra.Bind(orchestra.String("eve")))).
		All()
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 2 || !ans[0].Tuple[0].Equal(orchestra.String("bea")) || !ans[1].Tuple[0].Equal(orchestra.String("cal")) {
		t.Fatalf("answers = %v", ans)
	}
}

func TestQueryErrInvalidQuery(t *testing.T) {
	_, alice := graphSystem(t)
	ctx := context.Background()
	// A view head shadowing a stored relation is rejected with the typed
	// sentinel, through both terminal operations.
	_, err := alice.Query(ctx, "Follows", orchestra.Free("a"), orchestra.Free("b")).
		Rule("Follows", []string{"a", "b"},
			orchestra.Atom("Follows", orchestra.Free("a"), orchestra.Free("b"))).
		All()
	if !errors.Is(err, orchestra.ErrInvalidQuery) {
		t.Fatalf("err = %v, want ErrInvalidQuery", err)
	}
	// Builder-level misuse: empty variable name.
	_, err = alice.Query(ctx, "Follows", orchestra.Free(""), orchestra.Free("b")).All()
	if !errors.Is(err, orchestra.ErrInvalidQuery) {
		t.Fatalf("err = %v, want ErrInvalidQuery", err)
	}
	// An unsafe rule body (negation variable never bound) surfaces the
	// evaluator's validation failure.
	_, err = alice.Query(ctx, "v", orchestra.Free("x")).
		Rule("v", []string{"x"},
			orchestra.Atom("Follows", orchestra.Free("x"), orchestra.Free("y")),
			orchestra.Not("Follows", orchestra.Free("x"), orchestra.Free("ghost"))).
		All()
	if err == nil {
		t.Fatal("unsafe rule accepted")
	}
}

func TestQueryStreamEarlyBreak(t *testing.T) {
	_, alice := graphSystem(t)
	n := 0
	for _, err := range reachQuery(alice, context.Background(), "ann").Stream() {
		if err != nil {
			t.Fatal(err)
		}
		n++
		break
	}
	if n != 1 {
		t.Fatalf("yielded %d answers after break", n)
	}
}

func TestQueryContextAndClose(t *testing.T) {
	sys, alice := graphSystem(t)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := reachQuery(alice, canceled, "ann").All(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	sys.Close()
	if _, err := reachQuery(alice, context.Background(), "ann").All(); !errors.Is(err, orchestra.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// Query answers must observe the current instance across commits and
// reconciliations (queries read the instance's own extents).
func TestQuerySeesCommittedWrites(t *testing.T) {
	_, alice := graphSystem(t)
	ctx := context.Background()
	before, err := reachQuery(alice, ctx, "ann").All()
	if err != nil || len(before) != 3 {
		t.Fatalf("before: %v %v", before, err)
	}
	if _, err := alice.Begin().
		Insert("Follows", orchestra.NewTuple(orchestra.String("dan"), orchestra.String("eve"))).
		Commit(); err != nil {
		t.Fatal(err)
	}
	after, err := reachQuery(alice, ctx, "ann").All()
	if err != nil || len(after) != 5 { // bea cal dan eve fay
		t.Fatalf("after: %v %v", after, err)
	}
}
