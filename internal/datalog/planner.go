package datalog

import (
	"fmt"
	"strings"

	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

// The planner compiles each rule body into a plan: an ordered list of steps
// with every variable lowered to an integer slot in a flat environment, so
// that firing a rule never touches a string-keyed binding map. Ordering is
// the statistics-free greedy strategy that wins for pattern-based datalog
// workloads: selectivity is visible in the pattern syntax (constants and
// already-bound variables), so no cardinality estimation is needed beyond
// whole-relation sizes for tie-breaking.

// termMode says where a compiled term's value comes from at runtime.
type termMode uint8

const (
	termConst termMode = iota // a constant from the rule text
	termSlot                  // a variable slot bound by an earlier step
)

// planTerm is a compiled term: a constant or a reference to a bound slot.
type planTerm struct {
	mode termMode
	slot int
	val  schema.Value
}

func (pt planTerm) value(env []schema.Value) schema.Value {
	if pt.mode == termSlot {
		return env[pt.slot]
	}
	return pt.val
}

// scanAction handles one non-probed column of a scanned atom: bind the
// candidate's value into a fresh slot, or (for a variable repeated within
// the same atom) check it against the slot bound a column earlier.
type scanAction struct {
	col   int
	slot  int
	check bool
}

// stepKind discriminates compiled plan steps.
type stepKind uint8

const (
	stepScan stepKind = iota // enumerate a positive atom's extent
	stepNeg                  // negated atom: fail if the ground tuple exists
	stepCmp                  // builtin comparison over bound terms
)

// planStep is one scheduled, compiled body literal.
type planStep struct {
	kind    stepKind
	lit     Literal // original literal, for rendering and errors
	bodyIdx int     // position in the original rule body

	// stepScan:
	pred      string
	isDelta   bool
	boundCols []int      // columns probed through the hash index
	probes    []planTerm // value sources for boundCols, aligned
	actions   []scanAction
	// pushed counts boundCols entries that exist only because an OpEq
	// filter was pushed down into the probe key (see buildPlan); such
	// columns also carry a bind action, since the probe narrows the bucket
	// but does not bind the slot.
	pushed int

	// stepNeg:
	negTerms []planTerm

	// stepCmp:
	op          CmpOp
	left, right planTerm

	// unbound marks a filter whose variables never bind — rejected by
	// Validate, but fireRuleStream may be handed unvalidated rules.
	unbound bool
}

// headAction builds one column of the head tuple from the environment.
type headAction struct {
	skolem *Skolem // non-nil: Skolem application over args
	args   []planTerm
	term   planTerm
}

// plan is the compiled evaluation order for one rule, specialized to the
// body position substituted with the delta extent in a semi-naive round
// (deltaIdx == -1 for naive/full firings).
type plan struct {
	steps    []planStep
	deltaIdx int
	nslots   int
	head     []headAction
	// skolemCols lists the head columns built by a Skolem application,
	// whose emitted values view the pipeline's key buffer (emitRow).
	skolemCols []int
	headErr    error // unbound head variable (unvalidated rules only)
	// tokProv is the rule's provenance-token polynomial (zero if the rule
	// has none), built once at plan time so emitting a head fact does not
	// re-derive the canonical single-variable polynomial per emission.
	tokProv provenance.Poly
	// provNeutral mirrors Rule.ProvNeutral: firings skip all annotation
	// products and emit 1.
	provNeutral bool
	// ties lists the greedy choices that relation sizes decided.
	ties []planTie
}

// planTie is one greedy step at which several atoms tied on boundness, so
// the smallest relation (then the earliest body position) was taken. The
// plan is what buildPlan builds over any database on which every tie picks
// the same atom: the steps before a tie are fixed by the ties before it.
type planTie struct {
	preds  []string // the tied atoms' predicates, in body order
	chosen int      // index into preds of the atom taken
}

// tiesHold reports whether buildPlan over db would make every one of the
// plan's size-decided choices the same way.
func (p *plan) tiesHold(db *DB) bool {
	for _, t := range p.ties {
		best, bestCard := 0, db.Rel(t.preds[0]).Len()
		for i, pred := range t.preds[1:] {
			if c := db.Rel(pred).Len(); c < bestCard {
				best, bestCard = i+1, c
			}
		}
		if best != t.chosen {
			return false
		}
	}
	return true
}

// String renders the plan's literal order, for tests and debugging.
func (p *plan) String() string {
	parts := make([]string, len(p.steps))
	for i, s := range p.steps {
		parts[i] = s.lit.String()
	}
	return strings.Join(parts, ", ")
}

// rulePlans holds one rule's resolved plans: the full (naive) plan and one
// delta-specialized plan per positive body position.
type rulePlans struct {
	full  *plan
	delta []*plan // indexed by body position; nil for filter literals
}

// tiesHold reports whether every one of the rule's plans would be built the
// same way over db (see plan.tiesHold).
func (rp rulePlans) tiesHold(db *DB) bool {
	if !rp.full.tiesHold(db) {
		return false
	}
	for _, d := range rp.delta {
		if d != nil && !d.tiesHold(db) {
			return false
		}
	}
	return true
}

// buildRulePlans builds one rule's full plan and its delta plans over db.
func buildRulePlans(r Rule, db *DB) rulePlans {
	rp := rulePlans{full: buildPlan(r, -1, db, false), delta: make([]*plan, len(r.Body))}
	for j, l := range r.Body {
		if l.Builtin == nil && !l.Negated {
			rp.delta[j] = buildPlan(r, j, db, false)
		}
	}
	return rp
}

// buildPlan orders one rule body greedily and compiles it to slots:
//
//   - Fully-constant atoms (every term a constant) are O(1) existence
//     gates: under greedy ordering they schedule first of all, even before
//     the delta literal, so a failing gate costs one probe per round
//     instead of one probe per delta fact.
//   - The delta literal (when present) scans next — it is both mandatory
//     and usually tiny.
//   - Among the remaining positive atoms, prefer fully-bound atoms (they
//     are O(1) existence probes), then the atom sharing the most bound
//     terms — constants plus variables bound by earlier steps — with the
//     current binding set, breaking ties by current relation cardinality
//     and finally by body position.
//   - Negations and comparisons float to the earliest step at which their
//     variables are all bound; they never scan, only filter, so running
//     them early prunes the enumeration without changing its result.
//
// Equality filters additionally push down into probe keys: when a scan
// introduces a variable x and the body carries x = c (or x = y with y
// already bound by an earlier step), x's column joins the probe columns so
// non-matching facts never leave the index bucket. The filter step itself
// still runs — pushdown only narrows candidate sets, it never changes
// results — and the pushed column still binds its slot via a scan action.
//
// With noReorder, positive atoms keep their written order (filters still
// float — an unbound filter cannot run at all; pushdown still applies).
// Early termination on empty intermediates needs no planning: enumeration
// stops the moment any step has no candidates.
func buildPlan(r Rule, deltaIdx int, db *DB, noReorder bool) *plan {
	p := &plan{deltaIdx: deltaIdx, steps: make([]planStep, 0, len(r.Body)), provNeutral: r.ProvNeutral}
	if r.ProvToken != "" && !r.ProvNeutral {
		p.tokProv = provenance.NewVar(provenance.Var(r.ProvToken))
	}
	var positives, filters []int
	for i, l := range r.Body {
		if l.Builtin == nil && !l.Negated {
			positives = append(positives, i)
		} else {
			filters = append(filters, i)
		}
	}
	// Equality-filter sources for pushdown: var = const and var = var.
	eqConst := map[string]schema.Value{}
	eqVars := map[string][]string{}
	for _, fi := range filters {
		bt := r.Body[fi].Builtin
		if bt == nil || bt.Op != OpEq {
			continue
		}
		l, rt := bt.Left, bt.Right
		switch {
		case l.IsVar() && !rt.IsVar():
			if _, ok := eqConst[l.Name]; !ok {
				eqConst[l.Name] = rt.Value
			}
		case !l.IsVar() && rt.IsVar():
			if _, ok := eqConst[rt.Name]; !ok {
				eqConst[rt.Name] = l.Value
			}
		case l.IsVar() && rt.IsVar() && l.Name != rt.Name:
			eqVars[l.Name] = append(eqVars[l.Name], rt.Name)
			eqVars[rt.Name] = append(eqVars[rt.Name], l.Name)
		}
	}
	slots := map[string]int{} // bound variable -> slot
	newSlot := func(name string) int {
		s := p.nslots
		p.nslots++
		slots[name] = s
		return s
	}
	compileTerm := func(t Term) (planTerm, bool) {
		if !t.IsVar() {
			return planTerm{mode: termConst, val: t.Value}, true
		}
		if s, ok := slots[t.Name]; ok {
			return planTerm{mode: termSlot, slot: s}, true
		}
		return planTerm{}, false
	}
	placed := make([]bool, len(r.Body))
	filterReady := func(l Literal) bool {
		if l.Builtin != nil {
			_, okL := compileTerm(l.Builtin.Left)
			_, okR := compileTerm(l.Builtin.Right)
			return okL && okR
		}
		for _, t := range l.Atom.Terms {
			if _, ok := compileTerm(t); !ok {
				return false
			}
		}
		return true
	}
	compileFilter := func(fi int) planStep {
		l := r.Body[fi]
		st := planStep{lit: l, bodyIdx: fi}
		if l.Builtin != nil {
			st.kind = stepCmp
			st.op = l.Builtin.Op
			var okL, okR bool
			st.left, okL = compileTerm(l.Builtin.Left)
			st.right, okR = compileTerm(l.Builtin.Right)
			st.unbound = !okL || !okR
			return st
		}
		st.kind = stepNeg
		st.pred = l.Atom.Pred
		st.negTerms = make([]planTerm, len(l.Atom.Terms))
		for i, t := range l.Atom.Terms {
			var ok bool
			st.negTerms[i], ok = compileTerm(t)
			if !ok {
				st.unbound = true
			}
		}
		return st
	}
	sweepFilters := func() {
		for _, fi := range filters {
			if !placed[fi] && filterReady(r.Body[fi]) {
				placed[fi] = true
				p.steps = append(p.steps, compileFilter(fi))
			}
		}
	}
	// pushTerm resolves the probe source an equality filter supplies for a
	// variable the current atom is about to introduce: a constant from
	// x = c, or the slot of an x = y neighbor bound by an EARLIER step.
	// Neighbors introduced by the same atom (newInAtom) are rejected — probe
	// keys are encoded before the atom's bind actions run, so their slots
	// hold stale values at probe time.
	pushTerm := func(name string, newInAtom map[string]bool) (planTerm, bool) {
		if cv, ok := eqConst[name]; ok {
			return planTerm{mode: termConst, val: cv}, true
		}
		for _, nb := range eqVars[name] {
			if s, ok := slots[nb]; ok && !newInAtom[nb] {
				return planTerm{mode: termSlot, slot: s}, true
			}
		}
		return planTerm{}, false
	}
	compileScan := func(bi int, isDelta bool) planStep {
		a := r.Body[bi].Atom
		st := planStep{kind: stepScan, lit: r.Body[bi], bodyIdx: bi, pred: a.Pred, isDelta: isDelta}
		newInAtom := map[string]bool{}
		for col, t := range a.Terms {
			switch {
			case !t.IsVar():
				st.boundCols = append(st.boundCols, col)
				st.probes = append(st.probes, planTerm{mode: termConst, val: t.Value})
			case newInAtom[t.Name]:
				// Repeated within this atom: the first occurrence binds the
				// slot during the same candidate, so this one only checks.
				st.actions = append(st.actions, scanAction{col: col, slot: slots[t.Name], check: true})
			default:
				if s, ok := slots[t.Name]; ok {
					st.boundCols = append(st.boundCols, col)
					st.probes = append(st.probes, planTerm{mode: termSlot, slot: s})
				} else {
					if pt, ok := pushTerm(t.Name, newInAtom); ok {
						// Filter pushdown: probe the column with the filter's
						// value so the bucket never surfaces non-matches. The
						// slot still binds from the candidate below.
						st.boundCols = append(st.boundCols, col)
						st.probes = append(st.probes, pt)
						st.pushed++
					}
					newInAtom[t.Name] = true
					st.actions = append(st.actions, scanAction{col: col, slot: newSlot(t.Name)})
				}
			}
		}
		return st
	}
	take := func(bi int, isDelta bool) {
		placed[bi] = true
		p.steps = append(p.steps, compileScan(bi, isDelta))
		sweepFilters()
	}
	sweepFilters() // constant-only filters run before any scan
	remaining := append([]int(nil), positives...)
	removeIdx := func(s []int, v int) []int {
		for i, x := range s {
			if x == v {
				return append(s[:i], s[i+1:]...)
			}
		}
		return s
	}
	if !noReorder {
		// Fully-constant atoms are existence gates: one probe decides the
		// whole round, so they schedule even before the delta literal
		// (ascending body position keeps them deterministic).
		for _, bi := range append([]int(nil), remaining...) {
			if bi == deltaIdx {
				continue
			}
			constOnly := true
			for _, t := range r.Body[bi].Atom.Terms {
				if t.IsVar() {
					constOnly = false
					break
				}
			}
			if constOnly {
				take(bi, false)
				remaining = removeIdx(remaining, bi)
			}
		}
	}
	if deltaIdx >= 0 {
		take(deltaIdx, true)
		remaining = removeIdx(remaining, deltaIdx)
	}
	if noReorder {
		for _, bi := range remaining {
			take(bi, false)
		}
	} else {
		for len(remaining) > 0 {
			best, bestFull, bestBound, bestCard := -1, false, -1, -1
			var tied []int // the candidates level with best on boundness
			for _, bi := range remaining {
				a := r.Body[bi].Atom
				nb := 0
				for _, t := range a.Terms {
					if !t.IsVar() {
						nb++
					} else if _, ok := slots[t.Name]; ok {
						nb++
					} else if _, ok := pushTerm(t.Name, nil); ok {
						// A pushed-down equality makes this column a probe
						// column even though the variable is new.
						nb++
					}
				}
				full := nb == len(a.Terms)
				card := db.Rel(a.Pred).Len()
				better, level := false, false
				switch {
				case best == -1:
					better = true
				case full != bestFull:
					better = full
				case nb != bestBound:
					better = nb > bestBound
				default:
					level = true
					better = card < bestCard
				}
				switch {
				case better && !level:
					tied = append(tied[:0], bi)
				case level:
					tied = append(tied, bi)
				}
				if better {
					best, bestFull, bestBound, bestCard = bi, full, nb, card
				}
			}
			if len(tied) > 1 {
				t := planTie{preds: make([]string, len(tied))}
				for i, bi := range tied {
					t.preds[i] = r.Body[bi].Atom.Pred
					if bi == best {
						t.chosen = i
					}
				}
				p.ties = append(p.ties, t)
			}
			take(best, false)
			remaining = removeIdx(remaining, best)
		}
	}
	// Defensive: filters whose variables never bind (rejected by Validate,
	// but fireRuleStream may be handed unvalidated rules) run last and fail there.
	for _, fi := range filters {
		if !placed[fi] {
			p.steps = append(p.steps, compileFilter(fi))
		}
	}
	// Compile the head.
	p.head = make([]headAction, len(r.Head.Terms))
	for i, ht := range r.Head.Terms {
		if ht.Skolem != nil {
			ha := headAction{skolem: ht.Skolem, args: make([]planTerm, len(ht.Skolem.Args))}
			for j, at := range ht.Skolem.Args {
				var ok bool
				ha.args[j], ok = compileTerm(at)
				if !ok && p.headErr == nil {
					p.headErr = fmt.Errorf("datalog: rule %q: unbound skolem argument %s", r.ID, at)
				}
			}
			p.head[i] = ha
			p.skolemCols = append(p.skolemCols, i)
			continue
		}
		pt, ok := compileTerm(ht.Term)
		if !ok && p.headErr == nil {
			p.headErr = fmt.Errorf("datalog: rule %q: unbound head variable %s", r.ID, ht.Term)
		}
		p.head[i] = headAction{term: pt}
	}
	return p
}
