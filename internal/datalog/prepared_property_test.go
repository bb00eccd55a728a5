package datalog_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"orchestra/internal/datalog"
	"orchestra/internal/datalog/magic"
	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

// mixedDomain holds the values whose identity is easy to get wrong: -0 and
// 0, NaN, and the int and float spellings of one.
var mixedDomain = []schema.Value{
	schema.Int(0), schema.Int(1), schema.Float(1), schema.Float(0),
	schema.Float(math.Copysign(0, -1)), schema.Float(math.NaN()), schema.String("a"),
}

// fallbackRules are stratified, but adornment puts q@bb's demand behind
// b's negation of s2, which needs q@bb: the rewrite cannot be stratified,
// so every goal on g is prepared as the full program.
func fallbackRules() []datalog.Rule {
	xy := func(pred string) datalog.Atom { return datalog.NewAtom(pred, datalog.V("x"), datalog.V("y")) }
	head := func(pred string) datalog.Head { return datalog.NewHead(pred, datalog.HV("x"), datalog.HV("y")) }
	return []datalog.Rule{
		{ID: "q", Head: head("q"), Body: []datalog.Literal{datalog.Pos(xy("e0"))}, ProvToken: "rule:q"},
		{ID: "s2", Head: head("s2"), Body: []datalog.Literal{datalog.Pos(xy("e1")), datalog.Pos(xy("q"))}},
		{ID: "b", Head: head("b"), Body: []datalog.Literal{datalog.Pos(xy("e2")), datalog.Neg(xy("s2"))}},
		{ID: "g", Head: head("g"), Body: []datalog.Literal{datalog.Pos(xy("b")), datalog.Pos(xy("q"))}, ProvToken: "rule:g"},
	}
}

// One prepared shape answers many goals: for random programs (recursion,
// negation, the rewrite's stratification fallback) and goals on views and
// stored relations — boolean goals, repeated variables, and constants
// drawn from mixedDomain — each shape is prepared once and
// evaluated for a run of constant sets, with writes that change relation
// sizes, and so flip the plans' size ties, in between. Every evaluation
// must equal EvalGoalFull's answers: rows, polynomials and order.
func TestPreparedGoalProperty(t *testing.T) {
	trials := 150
	if testing.Short() {
		trials = 20
	}
	ctx := context.Background()
	var replans int64
	fallbacks := 0
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*104729 + 3))
		edb := datalog.NewDB()
		write := func() {
			pred := fmt.Sprintf("e%d", rng.Intn(3))
			if facts := edb.Rel(pred).Facts(); len(facts) > 4 && rng.Intn(2) == 0 {
				edb.Remove(pred, facts[rng.Intn(len(facts))].Tuple)
				return
			}
			for i, n := 0, 1+rng.Intn(2); i < n; i++ {
				tu := schema.NewTuple(mixedDomain[rng.Intn(len(mixedDomain))], mixedDomain[rng.Intn(len(mixedDomain))])
				edb.Add(pred, tu, provenance.NewVar(provenance.Var(fmt.Sprintf("t%s.%d", pred, rng.Intn(1000)))))
			}
		}
		for i := 0; i < 3; i++ {
			edb.Rel(fmt.Sprintf("e%d", i))
		}
		for i := 0; i < 8; i++ {
			write()
		}
		rules, preds := randomProgram(rng), []string{"p0", "p1", "q0", "e0"}
		if trial%5 == 4 {
			rules, preds = fallbackRules(), []string{"g", "q"}
		}
		pred := preds[rng.Intn(len(preds))]
		// A shape: each position a constant, a fresh variable, or g1 again.
		shape := make([]int, 2)
		for i := range shape {
			shape[i] = rng.Intn(3)
		}
		goalFor := func() datalog.Atom {
			terms := make([]datalog.Term, len(shape))
			for i, s := range shape {
				switch s {
				case 0:
					terms[i] = datalog.C(mixedDomain[rng.Intn(len(mixedDomain))])
				case 1:
					terms[i] = datalog.V(fmt.Sprintf("v%d", i))
				default:
					terms[i] = datalog.V("g1")
				}
			}
			return datalog.NewAtom(pred, terms...)
		}
		opts := datalog.Options{Provenance: true}
		prep, err := magic.Prepare(rules, goalFor())
		if err != nil {
			t.Fatalf("trial %d: prepare: %v\nrules: %s", trial, err, formatRules(rules))
		}
		if !prep.GoalDirected() {
			fallbacks++
		}
		for run := 0; run < 10; run++ {
			goal := goalFor()
			got, err := prep.Eval(ctx, magic.GoalConsts(nil, goal), edb, opts)
			if err != nil {
				t.Fatalf("trial %d run %d: %v", trial, run, err)
			}
			want, err := magic.EvalGoalFull(ctx, rules, goal, edb, opts)
			if err != nil {
				t.Fatalf("trial %d run %d: full: %v", trial, run, err)
			}
			if !sameAnswers(got, want) {
				t.Fatalf("trial %d run %d: answers diverge\ngoal: %v\nrules: %s\n got: %v\nwant: %v",
					trial, run, goal, formatRules(rules), got, want)
			}
			write()
		}
		replans += prep.Replans()
	}
	if fallbacks == 0 {
		t.Error("no trial exercised the stratification fallback")
	}
	if replans == 0 {
		t.Error("no write flipped a size tie: the replan path went unexercised")
	}
	t.Logf("%d fallback shapes, %d replans", fallbacks, replans)
}
