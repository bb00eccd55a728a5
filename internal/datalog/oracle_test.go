package datalog

import (
	"fmt"
	"strings"

	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

// The reference evaluator the streaming pipelines (pipeline.go) and the
// stratum driver (evalStratum, eval.go) are tested against. It shares plan
// compilation and the merge algebra with production — those have their own
// tests — and nothing else: its plans join in written order rather than the
// greedy planner's, rule bodies are enumerated by plain recursion, head
// facts are built fresh, and rounds run one rule at a time on the calling
// goroutine, each emission merged before the next is derived.

// oracleEval is Eval by the reference evaluator.
func oracleEval(p *Program, edb *DB, opts Options) (*DB, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	strata, err := p.Stratify()
	if err != nil {
		return nil, err
	}
	db := edb.Snapshot()
	ensurePreds(p, db)
	maxIter := opts.MaxIterations
	if maxIter <= 0 {
		maxIter = DefaultMaxIterations
	}
	for _, rules := range strata {
		if err := oracleStratum(rules, db, opts, maxIter); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// writtenOrderPlans compiles each rule's plans with the positive atoms in
// written order: the reference plans, which buildPlan's noReorder switch
// exists for.
func writtenOrderPlans(rules []Rule, db *DB) []rulePlans {
	out := make([]rulePlans, len(rules))
	for i, r := range rules {
		out[i] = rulePlans{full: buildPlan(r, -1, db, true), delta: make([]*plan, len(r.Body))}
		for j, l := range r.Body {
			if l.Builtin == nil && !l.Negated {
				out[i].delta[j] = buildPlan(r, j, db, true)
			}
		}
	}
	return out
}

// oracleStratum runs one stratum to fixpoint: a naive round, then semi-naive
// rounds joining each rule with the previous round's delta at one position.
func oracleStratum(rules []Rule, db *DB, opts Options, maxIter int) error {
	plans := writtenOrderPlans(rules, db)
	var delta pendingDelta
	fire := func(r Rule, pln *plan, dl []deltaFact) error {
		pred := r.Head.Pred
		return oracleFire(r, pln, db, dl, opts, func(t schema.Tuple, prov provenance.Poly) {
			if mr, changed := merge(db.MutableRel(pred), t, prov, opts); changed {
				mr.pred = pred
				delta.add(mr)
			}
		})
	}
	for ri, r := range rules {
		if err := fire(r, plans[ri].full, nil); err != nil {
			return err
		}
	}
	for iter := 0; !delta.empty(); iter++ {
		if iter >= maxIter {
			return fmt.Errorf("datalog: fixpoint not reached after %d iterations", maxIter)
		}
		prev := delta
		prev.fold()
		delta = pendingDelta{}
		for ri, r := range rules {
			for i, l := range r.Body {
				if l.Builtin != nil || l.Negated || len(prev.of(l.Atom.Pred)) == 0 {
					continue
				}
				if err := fire(r, plans[ri].delta[i], prev.of(l.Atom.Pred)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// oracleFire enumerates every satisfying assignment of the rule body in the
// plan's step order and calls emit with each head fact. When the plan has a
// delta step, that literal ranges over delta instead of its stored extent.
func oracleFire(r Rule, pln *plan, db *DB, delta []deltaFact, opts Options,
	emit func(schema.Tuple, provenance.Poly)) error {

	env := make([]schema.Value, pln.nslots)
	useProv := opts.Provenance && !pln.provNeutral
	ground := func(terms []planTerm) schema.Tuple {
		t := make(schema.Tuple, len(terms))
		for i, pt := range terms {
			t[i] = pt.value(env)
		}
		return t
	}
	var rec func(depth int, prov provenance.Poly) error
	rec = func(depth int, prov provenance.Poly) error {
		if depth == len(pln.steps) {
			if pln.headErr != nil {
				return pln.headErr
			}
			out := make(schema.Tuple, len(pln.head))
			for i, ha := range pln.head {
				if ha.skolem == nil {
					out[i] = ha.term.value(env)
					continue
				}
				args := make([]string, len(ha.args))
				for j, at := range ha.args {
					args[j] = at.value(env).Key()
				}
				out[i] = schema.LabeledNull(ha.skolem.Fn + "(" + strings.Join(args, ",") + ")")
			}
			if !opts.Provenance {
				prov = provenance.One()
			} else if !pln.tokProv.IsZero() {
				prov = prov.Mul(pln.tokProv)
			}
			if opts.ChaseSubsumption && out.HasLabeledNull() && subsumedByExisting(db.Rel(r.Head.Pred), out) {
				return nil
			}
			emit(out, prov)
			return nil
		}
		st := &pln.steps[depth]
		if st.unbound {
			return fmt.Errorf("datalog: rule %q: unbound filter literal", r.ID)
		}
		switch st.kind {
		case stepCmp:
			if !compare(st.op, st.left.value(env), st.right.value(env)) {
				return nil
			}
			return rec(depth+1, prov)
		case stepNeg:
			if db.Rel(st.pred).Contains(ground(st.negTerms)) {
				return nil
			}
			return rec(depth+1, prov)
		}
		// A scan: candidates are (tuple, annotation) pairs from the delta or
		// from the stored extent's index, whose Lookup already matched the
		// probe columns; the delta has no index, so they are compared here.
		try := func(tu schema.Tuple, ann provenance.Poly, checkProbes bool) error {
			if len(tu) != len(st.lit.Atom.Terms) {
				return nil
			}
			if checkProbes {
				for i, c := range st.boundCols {
					if !st.probes[i].value(env).Equal(tu[c]) {
						return nil
					}
				}
			}
			for _, a := range st.actions {
				if !a.check {
					env[a.slot] = tu[a.col]
				} else if !env[a.slot].Equal(tu[a.col]) {
					return nil
				}
			}
			if useProv {
				ann = prov.Mul(ann)
			} else {
				ann = prov
			}
			return rec(depth+1, ann)
		}
		if st.isDelta {
			for i := range delta {
				if err := try(delta[i].tuple, delta[i].prov, true); err != nil {
					return err
				}
			}
			return nil
		}
		// Lookup copies the facts present at the probe; an annotation is
		// read as it stands when its candidate is visited, since merges
		// earlier in the walk may have grown it in place.
		rel := db.Rel(st.pred)
		for _, f := range rel.Lookup(st.boundCols, ground(st.probes)) {
			cur, _ := rel.Get(f.Tuple)
			if err := try(f.Tuple, cur.Prov, false); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0, provenance.One())
}
