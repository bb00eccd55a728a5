package datalog_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"orchestra/internal/datalog"
	"orchestra/internal/datalog/magic"
	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

// The central guarantee of the magic subsystem: for every program, database,
// and goal binding pattern, goal-directed evaluation returns exactly the
// tuples AND exactly the provenance polynomials of the full fixpoint — across
// randomized recursive programs, stratified negation, comparisons, repeated
// variables, and both SIP strategies. The test lives here, not in package
// magic, because its second half needs the reference evaluator: the
// streaming pipelines must agree with it on the rewritten programs too, not
// just on hand-written ones.
func TestGoalDirectedEquivalenceProperty(t *testing.T) {
	trials := 120
	if testing.Short() {
		trials = 30
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 7919))
		edb, domain := randomEDB(rng)
		rules := randomProgram(rng)
		goal := randomGoal(rng, domain)
		opts := datalog.Options{Provenance: true}
		ctx := context.Background()
		prog := &datalog.Program{Rules: append(append([]datalog.Rule(nil), rules...), magic.AnswerRule(goal))}

		want, fullErr := magic.EvalGoalFull(ctx, rules, goal, edb, opts)
		oracleWant, oracleErr := oracleAnswers(prog, magic.AnswerPred, edb, opts)
		if (oracleErr != nil) != (fullErr != nil) {
			t.Fatalf("trial %d: error divergence: streaming %v, oracle %v\nrules: %v\ngoal: %v",
				trial, fullErr, oracleErr, rules, goal)
		}
		if fullErr == nil && !sameAnswers(want, oracleWant) {
			t.Fatalf("trial %d: streaming full fixpoint diverges from the oracle\ngoal: %v\nrules: %s\n got: %v\nwant: %v",
				trial, goal, formatRules(rules), want, oracleWant)
		}
		for _, sip := range []magic.SIP{magic.LeftToRight, magic.MostBound} {
			got, _, err := magic.EvalGoal(ctx, rules, goal, edb, opts, magic.Options{SIP: sip})
			if (err != nil) != (fullErr != nil) {
				t.Fatalf("trial %d sip %s: error divergence: goal-directed %v, full %v\nrules: %v\ngoal: %v",
					trial, sip, err, fullErr, rules, goal)
			}
			if fullErr != nil {
				continue
			}
			if !sameAnswers(got, want) {
				t.Fatalf("trial %d sip %s: answers diverge\ngoal: %v\nrules: %s\n got: %v\nwant: %v",
					trial, sip, goal, formatRules(rules), got, want)
			}
			// The rewrite of the answer rule's program for the all-free
			// @goal, whose demand seed is the empty tuple, by the oracle.
			oracleGot := oracleWant
			allFree := strings.Repeat("f", len(magic.AnswerRule(goal).Head.Terms))
			if res, rerr := magic.Rewrite(prog, magic.AnswerPred, allFree, magic.Options{SIP: sip}); rerr == nil {
				seeded := edb.Snapshot()
				seeded.Set(res.SeedPred, schema.Tuple{}, provenance.One())
				if oracleGot, err = oracleAnswers(res.Program, res.AnswerPred, seeded, opts); err != nil {
					t.Fatalf("trial %d sip %s: oracle goal-directed error: %v", trial, sip, err)
				}
			}
			if !sameAnswers(oracleGot, got) {
				t.Fatalf("trial %d sip %s: streaming goal-directed diverges from the oracle\ngoal: %v\nrules: %s\n got: %v\nwant: %v",
					trial, sip, goal, formatRules(rules), got, oracleGot)
			}
		}
	}
}

// oracleAnswers is magic's evalProgram by the reference evaluator.
func oracleAnswers(p *datalog.Program, answerPred string, edb *datalog.DB, opts datalog.Options) ([]datalog.Fact, error) {
	out, err := datalog.OracleEval(p, edb, opts)
	if err != nil {
		return nil, err
	}
	return out.Rel(answerPred).Facts(), nil
}

func sameAnswers(got, want []datalog.Fact) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !got[i].Tuple.Equal(want[i].Tuple) || !got[i].Prov.Equal(want[i].Prov) {
			return false
		}
	}
	return true
}

func formatRules(rules []datalog.Rule) string {
	s := ""
	for _, r := range rules {
		s += "\n  " + r.String()
	}
	return s
}

// randomEDB populates EDB predicates e0..e2 (arity 2) over a small integer
// domain; every fact carries its own provenance token. Sizes are kept tiny
// on purpose: unbounded B[X] witness sets grow with the number of distinct
// derivations, and the equivalence check needs exact (untruncated)
// polynomials on both paths.
func randomEDB(rng *rand.Rand) (*datalog.DB, []schema.Value) {
	db := datalog.NewDB()
	dom := make([]schema.Value, 3+rng.Intn(2))
	for i := range dom {
		dom[i] = schema.Int(int64(i))
	}
	for p := 0; p < 3; p++ {
		pred := fmt.Sprintf("e%d", p)
		db.Rel(pred) // keep the extent present even if no facts land
		for i, n := 0, 3+rng.Intn(6); i < n; i++ {
			tu := schema.NewTuple(dom[rng.Intn(len(dom))], dom[rng.Intn(len(dom))])
			db.Add(pred, tu, provenance.NewVar(provenance.Var(fmt.Sprintf("t%s.%d", pred, i))))
		}
	}
	return db, dom
}

var varPool = []string{"x", "y", "z", "w"}

// randomAtom builds an atom over pred with arity 2: arguments are variables
// from the pool (possibly repeated) or domain constants.
func randomAtom(rng *rand.Rand, pred string, dom []schema.Value) datalog.Atom {
	terms := make([]datalog.Term, 2)
	for i := range terms {
		if rng.Intn(5) == 0 {
			terms[i] = datalog.C(dom[rng.Intn(len(dom))])
		} else {
			terms[i] = datalog.V(varPool[rng.Intn(len(varPool))])
		}
	}
	return datalog.NewAtom(pred, terms...)
}

// randomProgram builds a stratified-by-construction random program:
//
//	layer A: p0, p1 — positive (possibly mutually recursive) rules over
//	         EDB preds and layer-A preds;
//	layer B: q0 — rules over EDB and layer A, optionally with a negated
//	         layer-A literal and a comparison, variables bound positively.
func randomProgram(rng *rand.Rand) []datalog.Rule {
	var rules []datalog.Rule
	bodyPreds := []string{"e0", "e1", "e2", "p0", "p1"}
	addRule := func(id, head string, dom []schema.Value, allowNeg bool) {
		n := 1 + rng.Intn(2)
		var body []datalog.Literal
		seenVars := map[string]bool{}
		idbUsed := false // at most one IDB literal per body keeps witness sets small
		for i := 0; i < n; i++ {
			pred := bodyPreds[rng.Intn(len(bodyPreds))]
			if (pred == "p0" || pred == "p1") && idbUsed {
				pred = fmt.Sprintf("e%d", rng.Intn(3))
			}
			if pred == "p0" || pred == "p1" {
				idbUsed = true
			}
			a := randomAtom(rng, pred, dom)
			body = append(body, datalog.Pos(a))
			for _, tm := range a.Terms {
				if tm.IsVar() {
					seenVars[tm.Name] = true
				}
			}
		}
		var vars []string
		for _, v := range varPool {
			if seenVars[v] {
				vars = append(vars, v)
			}
		}
		if len(vars) == 0 {
			return // all-constant body makes a dull rule; skip
		}
		if allowNeg && rng.Intn(2) == 0 {
			// Negate a layer-A atom whose variables are all positively bound.
			neg := datalog.NewAtom(fmt.Sprintf("p%d", rng.Intn(2)),
				datalog.V(vars[rng.Intn(len(vars))]),
				datalog.V(vars[rng.Intn(len(vars))]))
			body = append(body, datalog.Neg(neg))
		}
		if rng.Intn(3) == 0 {
			ops := []datalog.CmpOp{datalog.OpEq, datalog.OpNe, datalog.OpLt, datalog.OpLe, datalog.OpGt, datalog.OpGe}
			body = append(body, datalog.Cmp(
				datalog.V(vars[rng.Intn(len(vars))]),
				ops[rng.Intn(len(ops))],
				datalog.C(dom[rng.Intn(len(dom))])))
		}
		head1 := datalog.HV(vars[rng.Intn(len(vars))])
		head2 := datalog.HV(vars[rng.Intn(len(vars))])
		rules = append(rules, datalog.Rule{
			ID:        id,
			Head:      datalog.Head{Pred: head, Terms: []datalog.HeadTerm{head1, head2}},
			Body:      body,
			ProvToken: "rule:" + id,
		})
	}
	dom := []schema.Value{schema.Int(0), schema.Int(1), schema.Int(2)}
	for i, n := 0, 1+rng.Intn(2); i < n; i++ {
		addRule(fmt.Sprintf("a%d", i), fmt.Sprintf("p%d", rng.Intn(2)), dom, false)
	}
	addRule("b0", "q0", dom, true)
	// Guarantee p0, p1, q0 are all defined so goals always name an IDB pred.
	for _, pred := range []string{"p0", "p1", "q0"} {
		rules = append(rules, datalog.Rule{
			ID:        "seed-" + pred,
			Head:      datalog.NewHead(pred, datalog.HV("x"), datalog.HV("y")),
			Body:      []datalog.Literal{datalog.Pos(datalog.NewAtom("e0", datalog.V("x"), datalog.V("y")))},
			ProvToken: "rule:seed-" + pred,
		})
	}
	return rules
}

// randomGoal picks a predicate (IDB or EDB) and a random binding pattern:
// constants for bound positions, variables (sometimes repeated) for free
// ones.
func randomGoal(rng *rand.Rand, dom []schema.Value) datalog.Atom {
	preds := []string{"p0", "p1", "q0", "q0", "e0"}
	pred := preds[rng.Intn(len(preds))]
	terms := make([]datalog.Term, 2)
	names := []string{"g1", "g2", "g1"} // third choice repeats g1
	for i := range terms {
		if rng.Intn(2) == 0 {
			terms[i] = datalog.C(dom[rng.Intn(len(dom))])
		} else {
			terms[i] = datalog.V(names[rng.Intn(len(names))])
		}
	}
	return datalog.NewAtom(pred, terms...)
}
