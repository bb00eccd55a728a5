package magic

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strconv"

	"orchestra/internal/datalog"
	"orchestra/internal/schema"
)

// AnswerPred is the reserved head predicate of the synthetic rules that
// wrap a goal: EvalGoalFull's answer rule, and the view a goal on a stored
// relation is prepared through. Programs handed to EvalGoal must not define
// it.
const AnswerPred = "@goal"

// AnswerRule wraps a goal atom in the synthetic answer rule
//
//	@goal(x1, ..., xk) :- goal
//
// whose head lists the goal's distinct free variables in first-occurrence
// order. It is how EvalGoalFull, the reference, reads a goal's answers out
// of the full fixpoint.
func AnswerRule(goal datalog.Atom) datalog.Rule {
	var head []datalog.HeadTerm
	seen := map[string]bool{}
	for _, t := range goal.Terms {
		if t.IsVar() && !seen[t.Name] {
			seen[t.Name] = true
			head = append(head, datalog.HV(t.Name))
		}
	}
	return datalog.Rule{
		ID:   "@goal",
		Head: datalog.Head{Pred: AnswerPred, Terms: head},
		Body: []datalog.Literal{datalog.Pos(goal)},
	}
}

// Prepared is a goal query compiled for its shape: the view rules, the goal
// predicate, the goal's binding pattern (which positions hold constants,
// and which variables repeat). Everything a query of that shape
// needs but its constants — the magic rewrite, validation, stratification
// and the plans — is done once; Eval then seeds the demand predicate with
// one goal's constants, runs the kept plans, and reads the answers from the
// adorned goal's extent. A Prepared is safe for concurrent Evals. Between
// them it keeps one evaluation workspace (datalog.Prepared.EvalScoped),
// which holds the capacity of the last query's derived extents and
// scratch, never a fact.
type Prepared struct {
	prog *datalog.Prepared
	// seedPred is the demand predicate the constants seed; empty when the
	// rewrite was unusable and prog is the full program.
	seedPred   string
	answerPred string
	arity      int
	bound      []int    // the goal positions holding constants
	repeats    [][2]int // {position, its variable's first position}
	free       []int    // first positions of the distinct variables
}

// Shape appends an injective encoding of a goal query's shape (see
// Prepared) to b: two queries with equal encodings differ at most in the
// goal's constants and variable names, so one Prepared answers both. It is
// the goal's AppendGoalShape and then, for each rule, a 0 byte and the
// rule's datalog.AppendRuleKey. The goal comes first, so a caller can
// write a query's shape as the query is built, goal first and then one rule
// at a time, and ParseShape reads it back.
func Shape(b []byte, rules []datalog.Rule, goal datalog.Atom) []byte {
	b = AppendGoalShape(b, goal)
	for _, r := range rules {
		b = datalog.AppendRuleKey(append(b, 0), r)
	}
	return b
}

// AppendGoalShape appends the goal's part of its shape: the predicate,
// length-prefixed, then per position 'b' for a constant or 'f' and the
// first position holding the same variable.
func AppendGoalShape(b []byte, goal datalog.Atom) []byte {
	b = strconv.AppendInt(b, int64(len(goal.Pred)), 10)
	b = append(b, ':')
	b = append(b, goal.Pred...)
	for i, t := range goal.Terms {
		switch {
		case !t.IsVar():
			b = append(b, 'b')
		default:
			b = append(b, 'f')
			b = strconv.AppendInt(b, int64(firstUse(goal.Terms, i)), 10)
		}
	}
	return b
}

// GoalConsts appends the goal's constants, in position order, to dst: what
// a Prepared of its shape evaluates with.
func GoalConsts(dst schema.Tuple, goal datalog.Atom) schema.Tuple {
	for _, t := range goal.Terms {
		if !t.IsVar() {
			dst = append(dst, t.Value)
		}
	}
	return dst
}

// ParseShape inverts Shape: it returns the rules and a goal whose shape is
// key and whose constants are consts, in position order. The goal's
// variable at position i is named "v" and i's first position, which
// Shape does not record.
func ParseShape(key []byte, consts schema.Tuple) ([]datalog.Rule, datalog.Atom, error) {
	bad := func(what string) error { return fmt.Errorf("magic: malformed query shape: %s", what) }
	colon := bytes.IndexByte(key, ':')
	if colon < 0 {
		return nil, datalog.Atom{}, bad("no goal predicate")
	}
	n, err := strconv.Atoi(string(key[:colon]))
	if err != nil || n < 0 || n > len(key)-colon-1 {
		return nil, datalog.Atom{}, bad("goal predicate length")
	}
	goal := datalog.Atom{Pred: string(key[colon+1 : colon+1+n])}
	rest := key[colon+1+n:]
	for len(rest) > 0 && rest[0] != 0 {
		switch rest[0] {
		case 'b':
			if len(consts) == 0 {
				return nil, datalog.Atom{}, bad("fewer constants than bound positions")
			}
			goal.Terms = append(goal.Terms, datalog.C(consts[0]))
			consts, rest = consts[1:], rest[1:]
		case 'f':
			end := 1
			for end < len(rest) && '0' <= rest[end] && rest[end] <= '9' {
				end++
			}
			first, err := strconv.Atoi(string(rest[1:end]))
			if err != nil || first > len(goal.Terms) {
				return nil, datalog.Atom{}, bad("free position")
			}
			goal.Terms = append(goal.Terms, datalog.V("v"+strconv.Itoa(first)))
			rest = rest[end:]
		default:
			return nil, datalog.Atom{}, bad("binding pattern")
		}
	}
	if len(consts) > 0 {
		return nil, datalog.Atom{}, bad("more constants than bound positions")
	}
	var rules []datalog.Rule
	for len(rest) > 0 {
		r, after, err := datalog.ParseRuleKey(rest[1:])
		if err != nil {
			return nil, datalog.Atom{}, err
		}
		if len(after) > 0 && after[0] != 0 {
			return nil, datalog.Atom{}, bad("bytes after a rule")
		}
		rules, rest = append(rules, r), after
	}
	return rules, goal, nil
}

// firstUse returns the first position holding the same variable as
// position i.
func firstUse(terms []datalog.Term, i int) int {
	for j, t := range terms[:i] {
		if t.IsVar() && t.Name == terms[i].Name {
			return j
		}
	}
	return i
}

// Prepare compiles the goal query's shape. A goal on a predicate no rule
// defines (a stored relation) is answered through the constant-free view
//
//	@goal(v0, ..., vn-1) :- p(v0, ..., vn-1)
//
// so every goal is an IDB goal. When adornment makes the rewrite
// unusable, the full program is prepared instead and Eval filters its
// extent of the goal predicate — the answers are the same either way.
// Errors are the input program's (unsafe rules, unstratifiable negation).
func Prepare(rules []datalog.Rule, goal datalog.Atom) (*Prepared, error) {
	p := &Prepared{arity: len(goal.Terms)}
	pattern := make([]byte, len(goal.Terms))
	for i, t := range goal.Terms {
		switch first := firstUse(goal.Terms, i); {
		case !t.IsVar():
			pattern[i] = 'b'
			p.bound = append(p.bound, i)
		case first != i:
			pattern[i] = 'f'
			p.repeats = append(p.repeats, [2]int{i, first})
		default:
			pattern[i] = 'f'
			p.free = append(p.free, i)
		}
	}
	prog := &datalog.Program{Rules: rules}
	pred := goal.Pred
	if !prog.IDBPreds()[pred] {
		pred = AnswerPred
		vars := make([]datalog.Term, len(goal.Terms))
		head := make([]datalog.HeadTerm, len(goal.Terms))
		for i := range vars {
			v := "v" + strconv.Itoa(i)
			vars[i], head[i] = datalog.V(v), datalog.HV(v)
		}
		prog = &datalog.Program{Rules: append(append([]datalog.Rule(nil), rules...), datalog.Rule{
			ID:   AnswerPred,
			Head: datalog.Head{Pred: AnswerPred, Terms: head},
			Body: []datalog.Literal{datalog.Pos(datalog.NewAtom(goal.Pred, vars...))},
		})}
	}
	if res, err := Rewrite(prog, pred, string(pattern)); err == nil {
		p.prog, p.seedPred, p.answerPred = res.Prepared, res.SeedPred, res.AnswerPred
		return p, nil
	}
	// Stratification conflicts introduced by adornment, a goal whose arity
	// is not its rules' (it has no answers), or unsafe input rules, whose
	// error the full program's preparation re-surfaces.
	pp, err := datalog.Prepare(prog)
	if err != nil {
		return nil, fmt.Errorf("magic: goal evaluation: %w", err)
	}
	p.prog, p.answerPred = pp, pred
	return p, nil
}

// GoalDirected reports whether the magic rewrite is in use; false means the
// full program is evaluated and filtered.
func (p *Prepared) GoalDirected() bool { return p.seedPred != "" }

// Replans reports how many times evaluation has re-planned a rule because
// a relation-size tie its plans were built on came out differently (see
// datalog.Prepared).
func (p *Prepared) Replans() int64 { return p.prog.Replans() }

// Eval answers the goal of p's shape whose constants are consts (in
// position order, see GoalConsts) over edb, which is never modified and
// must not be modified before Eval returns. The returned facts are the
// goal's answers — one per binding of the goal's distinct free variables,
// in first-occurrence order and in tuple order — annotated with exactly
// the provenance polynomials full evaluation computes: each is an adorned
// (or, in the fallback, a full) fact of the goal predicate that agrees
// with the goal's constants and repeated variables, projected onto the
// free positions. The projection merges no two facts, since they agree
// everywhere else.
//
// Only the answers leave the evaluation, so it runs scoped
// (datalog.Prepared.EvalScoped): the constants seed the demand predicate
// in the evaluation's own view of edb, a warm query reuses the derived
// extents and scratch of the last query of its shape, and the answers are
// read off the answer extent into one backing array of values. They are
// the caller's, and Eval keeps nothing of consts.
func (p *Prepared) Eval(ctx context.Context, consts schema.Tuple, edb *datalog.DB, opts datalog.Options) ([]datalog.Fact, error) {
	if len(consts) != len(p.bound) {
		return nil, fmt.Errorf("magic: %d constants for a shape with %d bound positions", len(consts), len(p.bound))
	}
	var answers []datalog.Fact
	err := p.prog.EvalScoped(ctx, edb, p.seedPred, consts, opts, func(db *datalog.DB) {
		answers = p.answers(db.Rel(p.answerPred), consts)
	})
	if err != nil {
		return nil, fmt.Errorf("magic: goal evaluation: %w", err)
	}
	return answers, nil
}

// answers scans the answer extent for the facts that agree with consts at
// the bound positions and whose repeated variables agree with their first
// occurrence, and projects them onto the free positions: one pass counts
// them, so every answer tuple is carved from one array of values, and a
// second fills it. They are sorted in tuple order.
func (p *Prepared) answers(rel *datalog.Rel, consts schema.Tuple) []datalog.Fact {
	n := 0
	for f := range rel.All() {
		if p.matches(f.Tuple, consts) {
			n++
		}
	}
	w := len(p.free)
	vals := make([]schema.Value, n*w)
	answers := make([]datalog.Fact, 0, n)
	for f := range rel.All() {
		if !p.matches(f.Tuple, consts) {
			continue
		}
		tu := vals[:w:w]
		vals = vals[w:]
		for i, pos := range p.free {
			tu[i] = f.Tuple[pos]
		}
		answers = append(answers, datalog.Fact{Tuple: tu, Prov: f.Prov})
	}
	slices.SortFunc(answers, func(a, b datalog.Fact) int { return a.Tuple.Compare(b.Tuple) })
	return answers
}

// matches reports whether a fact of the answer extent answers the goal
// whose constants are consts.
func (p *Prepared) matches(t, consts schema.Tuple) bool {
	if len(t) != p.arity {
		return false
	}
	for i, pos := range p.bound {
		if !t[pos].Equal(consts[i]) {
			return false
		}
	}
	for _, rp := range p.repeats {
		if !t[rp[0]].Equal(t[rp[1]]) {
			return false
		}
	}
	return true
}

// EvalGoal evaluates the goal atom over edb, under the given view rules,
// goal-directedly: it prepares the goal's shape (see Prepare) and evaluates
// it once, with no cache. Only demanded facts drive the fixpoint.
//
// goalDirected reports whether the magic rewrite was used; when the rewrite
// is unusable (see Rewrite) EvalGoal transparently falls back to full
// evaluation, so callers always get the right answers.
func EvalGoal(ctx context.Context, rules []datalog.Rule, goal datalog.Atom, edb *datalog.DB,
	opts datalog.Options, _ Options) (answers []datalog.Fact, goalDirected bool, err error) {

	p, err := Prepare(rules, goal)
	if err != nil {
		return nil, false, err
	}
	answers, err = p.Eval(ctx, GoalConsts(nil, goal), edb, opts)
	return answers, p.GoalDirected(), err
}

// EvalGoalFull evaluates the same query by the baseline strategy: the full
// fixpoint of rules over edb, with the answer rule extracting the goal's
// bindings. It is the reference EvalGoal is equivalent to (and measured
// against), and shares none of its answer extraction.
func EvalGoalFull(ctx context.Context, rules []datalog.Rule, goal datalog.Atom, edb *datalog.DB,
	opts datalog.Options) ([]datalog.Fact, error) {

	all := make([]datalog.Rule, 0, len(rules)+1)
	all = append(all, rules...)
	all = append(all, AnswerRule(goal))
	out, err := datalog.EvalCtx(ctx, &datalog.Program{Rules: all}, edb, opts)
	if err != nil {
		return nil, fmt.Errorf("magic: goal evaluation: %w", err)
	}
	return out.Rel(AnswerPred).Facts(), nil
}
