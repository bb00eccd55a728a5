package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"orchestra/internal/datalog"
	"orchestra/internal/datalog/magic"
	"orchestra/internal/provenance"
	"orchestra/internal/schema"
	"orchestra/internal/updates"
)

// Query is a conjunctive query (with optional builtins and negation)
// against a peer's local instance. Body atoms use the peer's local
// relation names; Select lists the output variables.
//
//	q := core.Query{
//	    Select: []string{"org", "seq"},
//	    Body: []datalog.Literal{
//	        datalog.Pos(datalog.NewAtom("O", datalog.V("org"), datalog.V("oid"))),
//	        datalog.Pos(datalog.NewAtom("S", datalog.V("oid"), datalog.V("pid"), datalog.V("seq"))),
//	    },
//	}
//
// Query is sugar over QueryGoal: the body becomes a view rule and the
// select list its goal, so the REPL's conjunctive queries run through the
// same goal-directed engine as the public SDK's.
type Query struct {
	Select []string
	Body   []datalog.Literal
}

// Answer is one query result: the selected values plus the provenance
// polynomial combining the provenance of every tuple joined to produce it.
type Answer struct {
	Tuple schema.Tuple
	Prov  provenance.Poly
}

// QueryMode selects the evaluation strategy for a goal query.
type QueryMode uint8

const (
	// GoalDirected evaluates through the magic-sets rewrite
	// (internal/datalog/magic): only facts reachable from the goal's
	// bindings drive the fixpoint. When the rewrite is unusable (adornment
	// can break stratification under negation) evaluation transparently
	// falls back to the full fixpoint — answers are identical either way.
	GoalDirected QueryMode = iota
	// FullFixpoint materializes every view rule over the whole instance and
	// filters. It is the reference strategy GoalDirected is equivalent to,
	// kept callable for verification and benchmarking.
	FullFixpoint
)

// GoalQuery is a goal-directed query: a goal atom whose constants are the
// bound arguments and whose variables are the free (output) ones, plus
// optional view rules defining derived predicates (recursion and stratified
// negation allowed) the goal may reference.
type GoalQuery struct {
	// Goal is the atom to solve. Its predicate names a stored relation or a
	// view rule head.
	Goal datalog.Atom
	// Rules are the query's view rules. Heads must not shadow stored
	// relations and must not use reserved names (containing '@').
	Rules []datalog.Rule
	// Mode selects the evaluation strategy; the zero value is GoalDirected.
	Mode QueryMode
	// SIP is the sideways-information-passing strategy for the magic
	// rewrite; the zero value is magic.LeftToRight.
	SIP magic.SIP
	// NoProvenance skips annotation bookkeeping: answers carry a zero
	// polynomial. Faster when the caller only wants tuples.
	NoProvenance bool
	// Stats, when non-nil, receives the evaluation's pipeline counters
	// (probe counts, pushdown hit rate, peak live intermediates — see
	// datalog.EvalStats). Counters accumulate across queries sharing the
	// struct.
	Stats *datalog.EvalStats
}

// queryPred is the reserved head predicate of the conjunctive Query form.
const queryPred = "_query"

// Query evaluates a conjunctive query over the peer's current local
// instance. Answers carry provenance, so trust conditions and Explain work
// on query results exactly as on stored tuples. The context bounds the
// evaluation.
func (p *Peer) Query(ctx context.Context, q Query) ([]Answer, error) {
	if len(q.Select) == 0 {
		return nil, fmt.Errorf("%w: query selects no variables", ErrInvalidQuery)
	}
	head := make([]datalog.HeadTerm, len(q.Select))
	goalTerms := make([]datalog.Term, len(q.Select))
	for i, v := range q.Select {
		head[i] = datalog.HV(v)
		goalTerms[i] = datalog.V(v)
	}
	return p.QueryGoal(ctx, GoalQuery{
		Goal: datalog.NewAtom(queryPred, goalTerms...),
		Rules: []datalog.Rule{{
			ID:   "query",
			Head: datalog.Head{Pred: queryPred, Terms: head},
			Body: q.Body,
		}},
	})
}

// QueryGoal solves a goal query over the peer's current local instance.
//
// The evaluator reads the instance's own extents through an O(#relations)
// copy-on-write snapshot (storage.Instance.EDB), returned to the instance
// when the query is done — queries never copy table rows, the fixpoint only
// clones the extents it derives into, and a write between two queries keeps
// the indexes the first one built. Under the default GoalDirected mode the
// program is magic-rewritten for the goal's binding pattern, so selective
// queries touch only the data their bindings can reach; the rewrite, its
// validation and its plans are kept per query shape (see evalShape), and a
// later query of the shape only seeds the goal's constants.
//
// Answers list one tuple per binding of the goal's distinct free variables
// (first-occurrence order), in deterministic order, annotated with exactly
// the provenance the full fixpoint would compute. A goal with no free
// variables is a boolean query: one empty answer tuple when it holds, none
// when it does not.
func (p *Peer) QueryGoal(ctx context.Context, q GoalQuery) ([]Answer, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.sys.Schema(p.name)
	if err := validateGoalQuery(s, q); err != nil {
		return nil, err
	}
	sp := p.obsv.startSpan("core_query", p.name)
	defer p.obsv.endSpan(sp, p.name)
	p.obsv.queries.Inc()
	defer p.obsv.observeRounds(p.obsv.roundsNow())
	// The peer mutex serializes this evaluation against the peer's own
	// writes, and the answers below are copied out of the evaluator's
	// extents, so the borrowed EDB is dead when QueryGoal returns.
	edb, release := p.local.EDB()
	defer release()
	opts := datalog.Options{
		Provenance: !q.NoProvenance,
		Stats:      q.Stats,
	}
	if opts.Stats == nil {
		// Fold un-redirected query evaluation into the peer's shared stats, so
		// System.Metrics() reflects query work without callers wiring a struct.
		opts.Stats = p.obsv.stats
	}
	var facts []datalog.Fact
	var err error
	if q.Mode == FullFixpoint {
		facts, err = magic.EvalGoalFull(ctx, q.Rules, q.Goal, edb, opts)
	} else {
		facts, err = p.evalShape(ctx, q, edb, opts)
	}
	if err != nil {
		return nil, err
	}
	out := make([]Answer, len(facts))
	for i, f := range facts {
		out[i] = Answer{Tuple: f.Tuple, Prov: f.Prov}
		if q.NoProvenance {
			out[i].Prov = provenance.Poly{}
		}
	}
	return out, nil
}

// queryShapeCap bounds how many compiled goal query shapes a peer keeps
// (DESIGN.md §14). An application asks a handful of shapes; a caller that
// builds a fresh shape per query overflows the cache, which then starts
// over rather than tracking recency.
const queryShapeCap = 64

// evalShape answers a GoalDirected query through the peer's compiled shape
// for it, compiling the shape on a miss. The caller holds p.mu.
func (p *Peer) evalShape(ctx context.Context, q GoalQuery, edb *datalog.DB, opts datalog.Options) ([]datalog.Fact, error) {
	p.shapeKey = magic.Shape(p.shapeKey[:0], q.Rules, q.Goal, q.SIP)
	prep := p.shapes[string(p.shapeKey)]
	if prep == nil {
		var err error
		if prep, err = magic.Prepare(q.Rules, q.Goal, magic.Options{SIP: q.SIP}); err != nil {
			return nil, err
		}
		if p.shapes == nil || len(p.shapes) >= queryShapeCap {
			p.shapes = make(map[string]*magic.Prepared, queryShapeCap)
		}
		p.shapes[string(p.shapeKey)] = prep
		p.obsv.prepares.Inc()
	}
	replans := prep.Replans()
	facts, err := prep.Eval(ctx, q.Goal, edb, opts)
	p.obsv.replans.Add(prep.Replans() - replans)
	return facts, err
}

// validateGoalQuery rejects malformed goal queries with ErrInvalidQuery
// detail before any evaluation work: missing goals, view heads that shadow
// stored relations or use reserved names, and goal/definition arity
// mismatches. Unknown body predicates are not errors — they evaluate over
// empty extents, like querying an empty relation.
func validateGoalQuery(s *schema.Schema, q GoalQuery) error {
	if q.Goal.Pred == "" {
		return fmt.Errorf("%w: empty goal", ErrInvalidQuery)
	}
	ruleArity := map[string]int{}
	for _, r := range q.Rules {
		h := r.Head.Pred
		switch {
		case h == "":
			return fmt.Errorf("%w: rule %q has an empty head predicate", ErrInvalidQuery, r.ID)
		case strings.Contains(h, "@"):
			return fmt.Errorf("%w: rule head %q uses a reserved name ('@' is reserved for the magic rewrite)", ErrInvalidQuery, h)
		case s.Relation(h) != nil:
			return fmt.Errorf("%w: rule head %q shadows a stored relation", ErrInvalidQuery, h)
		}
		if n, ok := ruleArity[h]; ok && n != len(r.Head.Terms) {
			return fmt.Errorf("%w: view %s defined with arities %d and %d", ErrInvalidQuery, h, n, len(r.Head.Terms))
		}
		ruleArity[h] = len(r.Head.Terms)
		// Body atoms must not alias rewrite-internal (adorned/magic)
		// predicates either: an '@' name that is inert as an empty EDB
		// extent under the full fixpoint could capture the rewrite's seed
		// or demand predicates and diverge under goal direction.
		for _, l := range r.Body {
			if l.Builtin == nil && strings.Contains(l.Atom.Pred, "@") {
				return fmt.Errorf("%w: rule %q references %q: '@' names are reserved for the magic rewrite",
					ErrInvalidQuery, r.ID, l.Atom.Pred)
			}
		}
	}
	if strings.Contains(q.Goal.Pred, "@") {
		return fmt.Errorf("%w: goal %q uses a reserved name", ErrInvalidQuery, q.Goal.Pred)
	}
	if rel := s.Relation(q.Goal.Pred); rel != nil {
		if len(q.Goal.Terms) != rel.Arity() {
			return fmt.Errorf("%w: goal %s has %d arguments; relation has arity %d",
				ErrInvalidQuery, q.Goal.Pred, len(q.Goal.Terms), rel.Arity())
		}
	} else if n, ok := ruleArity[q.Goal.Pred]; ok && n != len(q.Goal.Terms) {
		return fmt.Errorf("%w: goal %s has %d arguments; view has arity %d",
			ErrInvalidQuery, q.Goal.Pred, len(q.Goal.Terms), n)
	}
	return nil
}

// Support is one alternative derivation of a tuple: the publishing
// transactions whose data it joins and the mappings it passed through.
type Support struct {
	Txns     []updates.TxnID
	Mappings []string
}

// Explain returns the provenance of a tuple in the peer's local instance:
// the polynomial itself plus a per-derivation breakdown into supporting
// transactions and mappings. ok is false if the tuple is not present.
// Locally inserted tuples report the local transaction only.
func (p *Peer) Explain(rel string, tu schema.Tuple) (prov provenance.Poly, supports []Support, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	tbl := p.local.Table(rel)
	if tbl == nil {
		return provenance.Poly{}, nil, false
	}
	row, found := tbl.Get(tu)
	if !found {
		return provenance.Poly{}, nil, false
	}
	return row.Prov, DecodeSupports(row.Prov), true
}

// DecodeSupports splits a provenance polynomial into per-monomial Support
// records: update tokens become transaction ids, all other variables are
// mapping tokens.
func DecodeSupports(p provenance.Poly) []Support {
	var out []Support
	for i := range p.NumMonomials() {
		m := p.Monomial(i)
		var sup Support
		seenTxn := map[updates.TxnID]bool{}
		for _, t := range m {
			x := t.Var()
			if id, isTok := updates.TokenTxn(x); isTok {
				if !seenTxn[id] {
					seenTxn[id] = true
					sup.Txns = append(sup.Txns, id)
				}
			} else {
				sup.Mappings = append(sup.Mappings, string(x))
			}
		}
		sort.Slice(sup.Txns, func(i, j int) bool { return sup.Txns[i].Less(sup.Txns[j]) })
		out = append(out, sup)
	}
	return out
}
