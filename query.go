package orchestra

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"strconv"

	"orchestra/internal/core"
	"orchestra/internal/datalog"
	"orchestra/internal/datalog/magic"
)

// This file is the public query surface: a goal-directed, provenance-
// carrying query builder over a peer's local instance. Queries name a goal
// — a predicate with bound (constant) and free (variable) argument modes —
// and may define view rules (recursive, with stratified negation and
// comparisons) the goal references. Evaluation is goal-directed by default:
// the view program is magic-rewritten for the goal's binding pattern
// (internal/datalog/magic), so only facts reachable from the bound
// arguments drive the fixpoint, instead of materializing every view over
// the whole instance.
//
//	reachable := peer.Query(ctx, "reach", orchestra.Bind(orchestra.String("alice")), orchestra.Free("who")).
//	    Rule("reach", []string{"a", "b"}, orchestra.Atom("follows", orchestra.Free("a"), orchestra.Free("b"))).
//	    Rule("reach", []string{"a", "c"},
//	        orchestra.Atom("reach", orchestra.Free("a"), orchestra.Free("b")),
//	        orchestra.Atom("follows", orchestra.Free("b"), orchestra.Free("c")))
//	for ans, err := range reachable.Stream() {
//	    if err != nil { ... }
//	    use(ans.Tuple, ans.Prov)
//	}

// Answer is one query result: the values of the goal's distinct free
// variables (first-occurrence order) plus the provenance polynomial
// combining the provenance of every fact joined to derive it. A goal with
// no free variables is a boolean query: it yields a single empty-tuple
// Answer when it holds and nothing when it does not. With
// WithProvenance(false) the polynomial is zero.
type Answer = core.Answer

// EvalStats collects evaluation counters — index probes, filter-pushdown
// hit rate, candidates, emitted and suppressed head facts, rounds — from
// the streaming evaluator under a query. Attach one with Query.Stats; all
// fields are atomic and accumulate across the queries that share the
// struct, so a single EvalStats can meter a whole workload.
type EvalStats = datalog.EvalStats

// CmpOp is a comparison operator for Filter literals.
type CmpOp = datalog.CmpOp

// Comparison operators.
const (
	CmpEq CmpOp = datalog.OpEq
	CmpNe CmpOp = datalog.OpNe
	CmpLt CmpOp = datalog.OpLt
	CmpLe CmpOp = datalog.OpLe
	CmpGt CmpOp = datalog.OpGt
	CmpGe CmpOp = datalog.OpGe
)

// QueryTerm is one argument of a goal or body atom: bound to a constant
// (Bind) or a named free variable (Free).
type QueryTerm struct {
	name  string // the variable, when free
	value Value  // the constant, when bound
	free  bool
}

// Bind makes a bound argument: the position must equal the value. Bound
// goal arguments are what goal-directed evaluation specializes on.
func Bind(v Value) QueryTerm { return QueryTerm{value: v} }

// Free makes a free (variable) argument. Repeating a name joins the
// positions; in a goal, each distinct name contributes one output column.
// The name must not be empty.
func Free(name string) QueryTerm { return QueryTerm{name: name, free: true} }

// term returns the argument as a datalog term; ok is false for Free("").
func (t QueryTerm) term() (_ datalog.Term, ok bool) {
	if t.free {
		return datalog.V(t.name), t.name != ""
	}
	return datalog.C(t.value), true
}

// errEmptyFree is the error of a query that uses Free("").
var errEmptyFree = errors.New("orchestra: Free with an empty variable name")

// QueryLiteral is one body element of a view rule: an atom, a negated
// atom, or a comparison filter. It refers to the arguments it was made
// with until Rule has read it.
type QueryLiteral struct {
	pred string
	args []QueryTerm // a filter's two operands
	kind literalKind
	op   CmpOp
}

type literalKind uint8

const (
	literalAtom literalKind = iota
	literalNot
	literalFilter
)

// Atom matches the named relation or view with the given argument modes.
func Atom(pred string, args ...QueryTerm) QueryLiteral {
	return QueryLiteral{pred: pred, args: args}
}

// Not matches when no fact of the relation or view matches; every variable
// it uses must also appear in a positive atom of the same rule.
func Not(pred string, args ...QueryTerm) QueryLiteral {
	return QueryLiteral{pred: pred, args: args, kind: literalNot}
}

// Filter compares two terms; its variables must appear in positive atoms
// of the same rule.
func Filter(left QueryTerm, op CmpOp, right QueryTerm) QueryLiteral {
	return QueryLiteral{args: []QueryTerm{left, right}, kind: literalFilter, op: op}
}

// Query is an in-flight query description; build it with Peer.Query, add
// view rules and options, then consume Stream or All. A Query is not safe
// for concurrent mutation, but the terminal operations only read it.
//
// A Query records itself as it is built, as what answering it reads: the
// key of its shape (its view rules, goal predicate and binding pattern)
// and, apart from it, the goal's constants, both in storage the Query
// owns. A query of a shape the peer has compiled is answered from them
// alone; the peer decodes the rules from the key only to compile a shape
// it has not seen.
type Query struct {
	peer  *Peer
	ctx   context.Context
	sq    core.ShapeQuery // Key and Consts point into key and consts below
	err   error
	rules int // view rules added, for the next rule's ID
	// consts and key hold a small query's constants and shape key; a
	// larger one's spill to the heap.
	consts [2]Value
	key    [128]byte
}

// Query starts a goal-directed query: goal names a stored relation or a
// view rule head added with Rule, and args give its bound/free argument
// modes. The context bounds evaluation — cancellation and deadlines stop
// the fixpoint within one iteration.
func (p *Peer) Query(ctx context.Context, goal string, args ...QueryTerm) *Query {
	if ctx == nil {
		ctx = context.Background()
	}
	q := &Query{peer: p, ctx: ctx}
	q.sq.NoProvenance = !p.set.provenance
	var buf [8]datalog.Term
	g := datalog.Atom{Pred: goal, Terms: buf[:0]}
	for _, a := range args {
		t, ok := a.term()
		if !ok && q.err == nil {
			q.err = errEmptyFree
		}
		g.Terms = append(g.Terms, t)
	}
	q.sq.Key = magic.AppendGoalShape(q.key[:0], g)
	q.sq.Consts = magic.GoalConsts(q.consts[:0], g)
	return q
}

// Rule adds a view rule: pred(vars...) holds for every assignment
// satisfying all body literals. Rules may reference stored relations,
// other views, and themselves (recursion); negation must be stratified.
// Rule heads must not shadow stored relations.
func (q *Query) Rule(pred string, vars []string, body ...QueryLiteral) *Query {
	// The rule's ID is pred/i for the query's i-th rule (from 0).
	var idBuf [48]byte
	id := strconv.AppendInt(append(append(idBuf[:0], pred...), '/'), int64(q.rules), 10)
	q.rules++
	k := datalog.AppendRuleKeyStart(append(q.sq.Key, 0), false, id, "", pred)
	for _, v := range vars {
		if v == "" && q.err == nil {
			q.err = fmt.Errorf("orchestra: rule %s: empty head variable name", pred)
		}
		k = datalog.AppendTermKey(k, datalog.V(v))
	}
	for _, l := range body {
		if l.kind == literalFilter {
			k = datalog.AppendCmpKey(k, l.op)
		} else {
			k = datalog.AppendAtomKey(k, l.kind == literalNot, l.pred)
		}
		for _, a := range l.args {
			t, ok := a.term()
			if !ok && q.err == nil {
				q.err = errEmptyFree
			}
			k = datalog.AppendTermKey(k, t)
		}
	}
	q.sq.Key = k
	return q
}

// FullFixpoint disables goal-directed evaluation: every view rule is
// materialized over the whole instance and the goal filters the result.
// Answers are identical to the default mode — this is the reference
// baseline, kept callable for verification and benchmarking.
func (q *Query) FullFixpoint() *Query {
	q.sq.Mode = core.FullFixpoint
	return q
}

// Stats attaches an evaluation-counter collector: every evaluation of this
// query (each Stream/All call) accumulates its probe, pushdown, emission
// and round counters into s. Pass the same collector to
// several queries to meter them together.
func (q *Query) Stats(s *EvalStats) *Query {
	q.sq.Stats = s
	return q
}

// Stream evaluates the query and yields its answers with their provenance,
// in deterministic order. The sequence yields (zero, err) exactly once if
// the query is malformed (ErrInvalidQuery), the context ends
// (ctx.Err()), or the system is closed (ErrClosed); breaking out of the
// range loop simply stops. Each range over the sequence re-evaluates the
// query against the then-current instance.
func (q *Query) Stream() iter.Seq2[Answer, error] {
	return func(yield func(Answer, error) bool) {
		answers, err := q.All()
		if err != nil {
			yield(Answer{}, err)
			return
		}
		for _, a := range answers {
			if !yield(a, nil) {
				return
			}
		}
	}
}

// All evaluates the query and returns every answer, in Stream's order
// and with its errors. The slice is the evaluation's own; it is the
// caller's to keep.
func (q *Query) All() ([]Answer, error) {
	if q.err != nil {
		return nil, &taggedError{sentinel: ErrInvalidQuery, err: q.err}
	}
	if q.peer.sys.ctx.Err() != nil {
		return nil, ErrClosed
	}
	answers, err := q.peer.core.QueryShape(q.ctx, q.sq)
	if err != nil {
		return nil, wrapErr(err)
	}
	return answers, nil
}
