// Package magic implements goal-directed evaluation of datalog programs by
// the magic-sets rewrite: predicate adornment, left-to-right sideways
// information passing (SIP), constant-binding specialization, and
// generation of magic (demand) predicates that gate rule firing, so that a
// bottom-up fixpoint over the rewritten program derives only the facts
// reachable from a goal instead of the whole model.
//
// The rewrite is the textbook generalized-magic-sets construction over
// stratified programs:
//
//   - Every IDB predicate is specialized per binding pattern ("adornment"):
//     a string of 'b'/'f' marking which argument positions arrive bound.
//     Bindings originate in the goal's binding pattern and propagate
//     sideways through rule bodies in written order. The goal's constants
//     are not part of the rewrite: they are the tuple that seeds the goal's
//     magic predicate, so one rewritten program (see Prepare) answers every
//     goal of its shape.
//   - For each adorned predicate p^a a magic predicate magic@a@p holds the
//     demanded bindings of p's bound positions. Each adorned rule for p^a
//     is guarded by its magic literal, and each IDB body occurrence q^b
//     contributes a magic rule deriving q's demand from p's demand joined
//     with the positive body prefix (supplementary-magic style, with the
//     prefix inlined).
//   - Negated IDB literals are demanded with the all-free adornment — their
//     whole (reachable) extent is computed — because negation needs the
//     complete extent to be sound. Filters (negation, comparisons) never
//     appear in magic rule bodies: demand is over-approximated, which is
//     always sound.
//
// Magic rules are provenance-neutral (datalog.Rule.ProvNeutral): demand
// facts carry annotation 1 and therefore never pollute the provenance
// polynomials of real answers — goal-directed answers carry exactly the
// polynomials full evaluation computes (see the equivalence property test).
//
// Adornment can interact with negation to produce a non-stratifiable
// rewrite even when the input is stratified (a magic predicate's prefix can
// pull an adorned predicate into a recursive component that a negation
// crosses). Rewrite detects this — it validates and stratifies its output —
// and returns an error; callers fall back to full evaluation, which Prepare
// (and so EvalGoal) does automatically.
package magic

import (
	"fmt"
	"strings"

	"orchestra/internal/datalog"
)

// Options configures the rewrite. It has no fields: bindings pass through
// a rule body's positive literals in written order, the one strategy the
// engine runs (DESIGN.md §7).
type Options struct{}

// Result is the outcome of a magic-sets rewrite.
type Result struct {
	// Program is the rewritten (adorned + magic) program.
	Program *datalog.Program
	// Prepared is Program validated and stratified, ready to evaluate.
	Prepared *datalog.Prepared
	// SeedPred is the goal's magic (demand) predicate: evaluation must seed
	// it, annotated 1, with the tuple of the goal's constants in position
	// order to switch the demand cascade on.
	SeedPred string
	// AnswerPred is the adorned goal predicate. After evaluation its extent
	// holds the goal's answers among other demanded facts of the goal
	// predicate: those that agree with the seed at the bound positions.
	AnswerPred string
}

// adornedName is the specialized predicate p^pattern.
func adornedName(pred, pattern string) string {
	return pred + "@" + pattern
}

// magicName is the demand predicate for p^pattern; its arity is the number
// of 'b's in the pattern.
func magicName(pred, pattern string) string {
	return "magic@" + pattern + "@" + pred
}

// demand identifies one adorned predicate awaiting rule generation.
type demand struct {
	pred    string
	pattern string
}

// Rewrite performs the magic-sets rewrite of p for the goal predicate
// demanded with the given adornment: a 'b' for each position the goal binds
// to a constant, an 'f' for each variable. The constants themselves are not
// part of the rewrite — they arrive as the seed tuple of SeedPred — so one
// rewrite serves every goal of its binding pattern. The goal must be an IDB
// predicate of p. Predicate names containing '@' are reserved for the
// rewrite's adorned and magic predicates; callers must not feed programs
// that use them.
//
// The returned program is validated and stratified; an error means the
// rewrite cannot be used (most notably a stratification conflict introduced
// by adornment under negation) and the caller should evaluate the original
// program in full.
func Rewrite(p *datalog.Program, goal, pattern string) (*Result, error) {
	idb := p.IDBPreds()
	if !idb[goal] {
		return nil, fmt.Errorf("magic: goal predicate %q is not defined by any rule", goal)
	}
	rulesByHead := map[string][]datalog.Rule{}
	arities := map[string]int{}
	for _, r := range p.Rules {
		rulesByHead[r.Head.Pred] = append(rulesByHead[r.Head.Pred], r)
		if n, ok := arities[r.Head.Pred]; ok && n != len(r.Head.Terms) {
			return nil, fmt.Errorf("magic: predicate %s defined with arities %d and %d", r.Head.Pred, n, len(r.Head.Terms))
		}
		arities[r.Head.Pred] = len(r.Head.Terms)
	}
	if len(pattern) != arities[goal] || strings.Trim(pattern, "bf") != "" {
		return nil, fmt.Errorf("magic: adornment %q does not fit goal %s of arity %d", pattern, goal, arities[goal])
	}
	out := &datalog.Program{}
	seen := map[demand]bool{{goal, pattern}: true}
	worklist := []demand{{goal, pattern}}
	for len(worklist) > 0 {
		d := worklist[0]
		worklist = worklist[1:]
		for _, r := range rulesByHead[d.pred] {
			adornedRule, magicRules, demands := adornRule(r, d.pattern, idb)
			out.Rules = append(out.Rules, adornedRule)
			out.Rules = append(out.Rules, magicRules...)
			for _, nd := range demands {
				if !seen[nd] {
					seen[nd] = true
					worklist = append(worklist, nd)
				}
			}
		}
	}
	pp, err := datalog.Prepare(out)
	if err != nil {
		return nil, fmt.Errorf("magic: rewrite is not usable: %w", err)
	}
	return &Result{
		Program:    out,
		Prepared:   pp,
		SeedPred:   magicName(goal, pattern),
		AnswerPred: adornedName(goal, pattern),
	}, nil
}

// adornRule specializes one rule to the head binding pattern: it builds the
// guarded adorned rule, the magic rules demanded by its IDB body literals,
// and the list of adorned predicates those literals reference.
func adornRule(r datalog.Rule, pattern string, idb map[string]bool) (datalog.Rule, []datalog.Rule, []demand) {
	bound := map[string]bool{}
	// The rule's own magic literal: the head terms at bound positions. A
	// Skolem head term cannot be joined against the demanded binding — the
	// rule constructs that value — so its position is demoted to a fresh
	// don't-care variable: the guard then admits every demanded binding at
	// that position, a sound over-approximation.
	magicTerms := make([]datalog.Term, 0, len(pattern))
	fresh := 0
	for i, ht := range r.Head.Terms {
		if pattern[i] != 'b' {
			continue
		}
		switch {
		case ht.Skolem != nil:
			magicTerms = append(magicTerms, datalog.V(fmt.Sprintf("_magic_any%d", fresh)))
			fresh++
		case ht.Term.IsVar():
			magicTerms = append(magicTerms, ht.Term)
			bound[ht.Term.Name] = true
		default:
			magicTerms = append(magicTerms, ht.Term)
		}
	}
	magicLit := datalog.Pos(datalog.NewAtom(magicName(r.Head.Pred, pattern), magicTerms...))

	posOrder := sipOrder(r.Body)
	newBody := make([]datalog.Literal, 0, len(r.Body)+1)
	newBody = append(newBody, magicLit)
	prefix := []datalog.Literal{magicLit}
	var magicRules []datalog.Rule
	var demands []demand
	mcount := 0
	emitMagic := func(a datalog.Atom, pat string, body []datalog.Literal) {
		headTerms := make([]datalog.HeadTerm, 0, len(a.Terms))
		for i, t := range a.Terms {
			if pat[i] == 'b' {
				headTerms = append(headTerms, datalog.HeadTerm{Term: t})
			}
		}
		magicRules = append(magicRules, datalog.Rule{
			ID:          fmt.Sprintf("%s@%s/magic%d", r.ID, pattern, mcount),
			Head:        datalog.Head{Pred: magicName(a.Pred, pat), Terms: headTerms},
			Body:        body,
			ProvNeutral: true,
		})
		mcount++
		demands = append(demands, demand{a.Pred, pat})
	}
	for _, bi := range posOrder {
		l := r.Body[bi]
		if idb[l.Atom.Pred] {
			pat := patternFor(l.Atom.Terms, bound)
			emitMagic(l.Atom, pat, append([]datalog.Literal(nil), prefix...))
			l = datalog.Pos(datalog.NewAtom(adornedName(l.Atom.Pred, pat), l.Atom.Terms...))
		}
		newBody = append(newBody, l)
		prefix = append(prefix, l)
		for _, t := range l.Atom.Terms {
			if t.IsVar() {
				bound[t.Name] = true
			}
		}
	}
	// Filters ride along unchanged — except negated IDB literals, which are
	// renamed to (and demand) the all-free adorned variant: negation is only
	// sound against a complete extent, so the whole reachable extent of the
	// negated predicate is computed whenever this rule is demanded at all.
	for _, l := range r.Body {
		switch {
		case l.Builtin != nil:
			newBody = append(newBody, l)
		case l.Negated:
			if idb[l.Atom.Pred] {
				pat := strings.Repeat("f", len(l.Atom.Terms))
				emitMagic(l.Atom, pat, []datalog.Literal{magicLit})
				l = datalog.Neg(datalog.NewAtom(adornedName(l.Atom.Pred, pat), l.Atom.Terms...))
			}
			newBody = append(newBody, l)
		}
	}
	adornedRule := datalog.Rule{
		ID:        r.ID + "@" + pattern,
		Head:      datalog.Head{Pred: adornedName(r.Head.Pred, pattern), Terms: r.Head.Terms},
		Body:      newBody,
		ProvToken: r.ProvToken,
	}
	return adornedRule, magicRules, demands
}

// patternFor computes the adornment of an atom occurrence under the current
// binding set: constants and bound variables are 'b', everything else 'f'.
func patternFor(terms []datalog.Term, bound map[string]bool) string {
	b := make([]byte, len(terms))
	for i, t := range terms {
		if !t.IsVar() || bound[t.Name] {
			b[i] = 'b'
		} else {
			b[i] = 'f'
		}
	}
	return string(b)
}

// sipOrder returns the indexes of the body's positive literals in the order
// bindings pass sideways through them: written order.
func sipOrder(body []datalog.Literal) []int {
	var positives []int
	for i, l := range body {
		if l.Builtin == nil && !l.Negated {
			positives = append(positives, i)
		}
	}
	return positives
}
