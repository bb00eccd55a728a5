package magic

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"orchestra/internal/datalog"
	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

func str(s string) schema.Value { return schema.String(s) }

// edge builds an EDB of the given directed edges, each annotated with its
// own token so provenance is distinguishable per base fact.
func edgeDB(edges [][2]string) *datalog.DB {
	db := datalog.NewDB()
	for i, e := range edges {
		db.Add("edge", schema.NewTuple(str(e[0]), str(e[1])),
			provenance.NewVar(provenance.Var(fmt.Sprintf("e%d", i))))
	}
	return db
}

func tcRules() []datalog.Rule {
	return []datalog.Rule{
		{
			ID:   "base",
			Head: datalog.NewHead("reach", datalog.HV("x"), datalog.HV("y")),
			Body: []datalog.Literal{datalog.Pos(datalog.NewAtom("edge", datalog.V("x"), datalog.V("y")))},
		},
		{
			ID:   "step",
			Head: datalog.NewHead("reach", datalog.HV("x"), datalog.HV("y")),
			Body: []datalog.Literal{
				datalog.Pos(datalog.NewAtom("reach", datalog.V("x"), datalog.V("z"))),
				datalog.Pos(datalog.NewAtom("edge", datalog.V("z"), datalog.V("y"))),
			},
		},
	}
}

// Two disconnected components; a goal bound to the first must never demand
// the second.
var twoComponents = [][2]string{
	{"a", "b"}, {"b", "c"}, {"c", "d"},
	{"u", "v"}, {"v", "w"}, {"w", "u"},
}

func TestRewriteBoundReachability(t *testing.T) {
	edb := edgeDB(twoComponents)
	goal := datalog.NewAtom("reach", datalog.C(str("a")), datalog.V("y"))
	t.Run("left-to-right", func(t *testing.T) {
		got, goalDirected, err := EvalGoal(context.Background(), tcRules(), goal, edb,
			datalog.Options{Provenance: true}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !goalDirected {
			t.Fatal("rewrite unexpectedly fell back to full evaluation")
		}
		want, err := EvalGoalFull(context.Background(), tcRules(), goal, edb, datalog.Options{Provenance: true})
		if err != nil {
			t.Fatal(err)
		}
		assertSameAnswers(t, got, want)
		if len(got) != 3 { // b, c, d
			t.Fatalf("answers = %v", got)
		}
	})
}

// The goal-directed fixpoint must not materialize the undemanded component:
// that is the whole point of the rewrite.
func TestRewriteDerivesOnlyDemandedFacts(t *testing.T) {
	edb := edgeDB(twoComponents)
	res, err := Rewrite(&datalog.Program{Rules: tcRules()}, "reach", "bf")
	if err != nil {
		t.Fatal(err)
	}
	seeded := edb.Snapshot()
	seeded.Set(res.SeedPred, schema.NewTuple(str("a")), provenance.One())
	out, err := datalog.EvalCtx(context.Background(), res.Program, seeded, datalog.Options{Provenance: true})
	if err != nil {
		t.Fatal(err)
	}
	reach := out.Rel(adornedName("reach", "bf"))
	if reach.Len() != 3 {
		t.Fatalf("adorned reach extent = %d facts, want 3 (a->b,c,d)", reach.Len())
	}
	for _, f := range reach.Facts() {
		if !f.Tuple[0].Equal(str("a")) {
			t.Fatalf("undemanded fact derived: %v", f.Tuple)
		}
	}
	// Full evaluation derives the whole transitive closure of both
	// components: 6 pairs on the a->b->c->d path, 9 on the u/v/w cycle.
	full, err := datalog.EvalCtx(context.Background(), &datalog.Program{Rules: tcRules()}, edb, datalog.Options{Provenance: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := full.Rel("reach").Len(); n != 15 {
		t.Fatalf("full closure = %d facts, want 15", n)
	}
}

// Magic (demand) facts must be provenance-neutral: annotated 1, never a
// product of the prefix they were derived through.
func TestMagicFactsCarryNoProvenance(t *testing.T) {
	edb := edgeDB(twoComponents)
	res, err := Rewrite(&datalog.Program{Rules: tcRules()}, "reach", "bf")
	if err != nil {
		t.Fatal(err)
	}
	seeded := edb.Snapshot()
	seeded.Set(res.SeedPred, schema.NewTuple(str("a")), provenance.One())
	out, err := datalog.EvalCtx(context.Background(), res.Program, seeded, datalog.Options{Provenance: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, pred := range out.Preds() {
		if !strings.HasPrefix(pred, "magic@") {
			continue
		}
		for _, f := range out.Rel(pred).Facts() {
			if !f.Prov.IsOne() {
				t.Fatalf("magic fact %s%v carries provenance %v", pred, f.Tuple, f.Prov)
			}
		}
	}
}

func TestRewriteStratifiedNegation(t *testing.T) {
	// unreachable(x) :- node(x), !reach@ff... : nodes not reachable from "a".
	rules := append(tcRules(), datalog.Rule{
		ID:   "unreached",
		Head: datalog.NewHead("unreached", datalog.HV("x")),
		Body: []datalog.Literal{
			datalog.Pos(datalog.NewAtom("node", datalog.V("x"))),
			datalog.Neg(datalog.NewAtom("reach", datalog.C(str("a")), datalog.V("x"))),
		},
	})
	edb := edgeDB(twoComponents)
	for _, n := range []string{"a", "b", "c", "d", "u", "v", "w"} {
		edb.Add("node", schema.NewTuple(str(n)), provenance.NewVar(provenance.Var("n:"+n)))
	}
	goal := datalog.NewAtom("unreached", datalog.V("x"))
	got, goalDirected, err := EvalGoal(context.Background(), rules, goal, edb,
		datalog.Options{Provenance: true}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !goalDirected {
		t.Fatal("stratified negation should rewrite goal-directedly")
	}
	want, err := EvalGoalFull(context.Background(), rules, goal, edb, datalog.Options{Provenance: true})
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, got, want)
	if len(got) != 4 { // a, u, v, w
		t.Fatalf("answers = %v", got)
	}
}

func TestRewriteSkolemHeadDemoted(t *testing.T) {
	// view(f(x), x) :- edge(x, y): a bound first goal argument cannot be
	// joined against the Skolem position; the rewrite must demote it and
	// still answer correctly.
	rules := []datalog.Rule{{
		ID: "sk",
		Head: datalog.Head{Pred: "view", Terms: []datalog.HeadTerm{
			datalog.HSkolem("f", datalog.V("x")),
			datalog.HV("x"),
		}},
		Body: []datalog.Literal{datalog.Pos(datalog.NewAtom("edge", datalog.V("x"), datalog.V("y")))},
	}}
	edb := edgeDB([][2]string{{"a", "b"}, {"c", "d"}})
	goal := datalog.NewAtom("view", datalog.V("n"), datalog.C(str("a")))
	got, _, err := EvalGoal(context.Background(), rules, goal, edb, datalog.Options{Provenance: true}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := EvalGoalFull(context.Background(), rules, goal, edb, datalog.Options{Provenance: true})
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, got, want)
	if len(got) != 1 || !got[0].Tuple[0].IsLabeledNull() {
		t.Fatalf("answers = %v", got)
	}
}

func TestRewriteRejectsNonIDBGoal(t *testing.T) {
	if _, err := Rewrite(&datalog.Program{Rules: tcRules()}, "edge", "ff"); err == nil {
		t.Fatal("EDB goal accepted")
	}
}

func TestEvalGoalFallbackSurfacesErrors(t *testing.T) {
	// Unsafe rule: head variable never bound. The rewrite refuses it and
	// the full-evaluation fallback re-surfaces the validation error.
	rules := []datalog.Rule{{
		ID:   "unsafe",
		Head: datalog.NewHead("bad", datalog.HV("x"), datalog.HV("ghost")),
		Body: []datalog.Literal{datalog.Pos(datalog.NewAtom("edge", datalog.V("x"), datalog.V("y")))},
	}}
	_, goalDirected, err := EvalGoal(context.Background(), rules,
		datalog.NewAtom("bad", datalog.V("a"), datalog.V("b")), edgeDB(nil),
		datalog.Options{}, Options{})
	if err == nil {
		t.Fatal("unsafe program accepted")
	}
	if goalDirected {
		t.Fatal("unsafe program reported as goal-directed")
	}
}

// Boolean goal: every argument bound, answer is the empty tuple iff true.
func TestEvalGoalBooleanQuery(t *testing.T) {
	edb := edgeDB(twoComponents)
	yes := datalog.NewAtom("reach", datalog.C(str("a")), datalog.C(str("d")))
	no := datalog.NewAtom("reach", datalog.C(str("a")), datalog.C(str("u")))
	got, _, err := EvalGoal(context.Background(), tcRules(), yes, edb, datalog.Options{Provenance: true}, Options{})
	if err != nil || len(got) != 1 || len(got[0].Tuple) != 0 {
		t.Fatalf("boolean true: %v %v", got, err)
	}
	got, _, err = EvalGoal(context.Background(), tcRules(), no, edb, datalog.Options{Provenance: true}, Options{})
	if err != nil || len(got) != 0 {
		t.Fatalf("boolean false: %v %v", got, err)
	}
}

// assertSameAnswers requires identical tuples and identical provenance
// polynomials, in the same (deterministic) order.
func assertSameAnswers(t *testing.T, got, want []datalog.Fact) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("answer count: got %d, want %d\n got: %v\nwant: %v", len(got), len(want), got, want)
	}
	for i := range got {
		if !got[i].Tuple.Equal(want[i].Tuple) {
			t.Fatalf("answer %d: got %v, want %v", i, got[i].Tuple, want[i].Tuple)
		}
		if !got[i].Prov.Equal(want[i].Prov) {
			t.Fatalf("answer %d (%v): provenance diverged\n got: %v\nwant: %v",
				i, got[i].Tuple, got[i].Prov, want[i].Prov)
		}
	}
}

// A goal whose arity is not its predicate's has no answers, as under the
// full fixpoint: the rewrite refuses the adornment and Prepare falls back.
func TestEvalGoalArityMismatch(t *testing.T) {
	goal := datalog.NewAtom("reach", datalog.C(str("a")))
	got, goalDirected, err := EvalGoal(context.Background(), tcRules(), goal, edgeDB(twoComponents),
		datalog.Options{Provenance: true}, Options{})
	if err != nil || len(got) != 0 || goalDirected {
		t.Fatalf("answers %v, goal-directed %v, err %v", got, goalDirected, err)
	}
	want, err := EvalGoalFull(context.Background(), tcRules(), goal, edgeDB(twoComponents), datalog.Options{Provenance: true})
	if err != nil || len(want) != 0 {
		t.Fatalf("full: answers %v, err %v", want, err)
	}
}

// Shape is the key of a peer's query-shape cache, so it must tell apart view
// rules that Rule.String renders alike: the variable x and the constant "x",
// and Int(1) and Float(1). Each query, answered through a cache keyed by
// Shape, must get the reference answers of its own rules.
func TestShapeTellsTermKindsApart(t *testing.T) {
	view := func(second datalog.Term) []datalog.Rule {
		return []datalog.Rule{{ID: "v", Head: datalog.NewHead("v", datalog.HV("y")),
			Body: []datalog.Literal{datalog.Pos(datalog.NewAtom("r", datalog.V("y"), second))}}}
	}
	views := []struct {
		name  string
		rules []datalog.Rule
	}{
		{"var x", view(datalog.V("x"))},
		{`const "x"`, view(datalog.C(str("x")))},
		{"Int(1)", view(datalog.C(schema.Int(1)))},
		{"Float(1)", view(datalog.C(schema.Float(1)))},
	}
	edb := datalog.NewDB()
	for i, v := range []schema.Value{str("x"), str("other"), schema.Int(1), schema.Float(1)} {
		edb.Add("r", schema.NewTuple(str(fmt.Sprintf("row%d", i)), v),
			provenance.NewVar(provenance.Var(fmt.Sprintf("r%d", i))))
	}
	goal := datalog.NewAtom("v", datalog.V("y"))
	ctx := context.Background()
	opts := datalog.Options{Provenance: true}
	cache := map[string]*Prepared{}
	answers := map[string]string{}
	for _, v := range views {
		key := string(Shape(nil, v.rules, goal))
		p, ok := cache[key]
		if !ok {
			var err error
			if p, err = Prepare(v.rules, goal); err != nil {
				t.Fatal(err)
			}
			cache[key] = p
		}
		got, err := p.Eval(ctx, GoalConsts(nil, goal), edb, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := EvalGoalFull(ctx, v.rules, goal, edb, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertSameAnswers(t, got, want)
		answers[v.name] = fmt.Sprint(got)
	}
	if len(cache) != len(views) {
		t.Errorf("%d views share %d shape keys", len(views), len(cache))
	}
	for _, pair := range [][2]string{{"var x", `const "x"`}, {"Int(1)", "Float(1)"}} {
		if answers[pair[0]] == answers[pair[1]] {
			t.Errorf("%s and %s answer alike (%s): the rules do not tell them apart", pair[0], pair[1], answers[pair[0]])
		}
	}
}
