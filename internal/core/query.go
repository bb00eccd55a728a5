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

// Answer is one query result: the selected values plus the provenance
// polynomial combining the provenance of every tuple joined to produce it.
// It is the evaluator's fact type, so the answers evaluation returns reach
// the caller without a copy.
type Answer = datalog.Fact

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
	// NoProvenance skips annotation bookkeeping: answers carry a zero
	// polynomial. Faster when the caller only wants tuples.
	NoProvenance bool
	// Stats, when non-nil, receives the evaluation's pipeline counters
	// (probe counts, pushdown hit rate, emissions, rounds — see
	// datalog.EvalStats). Counters accumulate across queries sharing the
	// struct.
	Stats *datalog.EvalStats
}

// ShapeQuery is a goal query as what answering it reads: its shape, the
// magic.Shape encoding of its view rules, goal predicate and binding
// pattern, and the goal's constants apart from it. It is how the public
// SDK hands over a query it records as the caller builds it (see
// QueryShape).
type ShapeQuery struct {
	// Key is the query's magic.Shape encoding.
	Key []byte
	// Consts are the goal's constants, in position order.
	Consts schema.Tuple
	// Mode, NoProvenance and Stats are GoalQuery's.
	Mode         QueryMode
	NoProvenance bool
	Stats        *datalog.EvalStats
}

// QueryGoal solves a goal query over the peer's current local instance. It
// writes the query's shape key and passes its constants apart, and answers
// as QueryShape does.
//
// Answers list one tuple per binding of the goal's distinct free variables
// (first-occurrence order), in deterministic order, annotated with exactly
// the provenance the full fixpoint would compute. A goal with no free
// variables is a boolean query: one empty answer tuple when it holds, none
// when it does not.
func (p *Peer) QueryGoal(ctx context.Context, q GoalQuery) ([]Answer, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.shapeKey = magic.Shape(p.shapeKey[:0], q.Rules, q.Goal)
	p.shapeConsts = magic.GoalConsts(p.shapeConsts[:0], q.Goal)
	return p.queryShape(ctx, ShapeQuery{Key: p.shapeKey, Consts: p.shapeConsts,
		Mode: q.Mode, NoProvenance: q.NoProvenance, Stats: q.Stats})
}

// QueryShape solves the goal query q over the peer's current local
// instance. It reads neither q.Key nor q.Consts after it returns.
//
// A GoalDirected query whose shape the peer has compiled (see queryShape)
// builds no rule and repeats no validation: its constants go straight to
// the compiled shape's seed. Only a shape the peer has not compiled, or a
// FullFixpoint query, decodes its rules from the key (magic.ParseShape)
// and validates them. The evaluator reads the instance's own extents in
// place, under the instance's read lock (storage.Instance.EDB): queries
// copy neither rows nor the relation table, and a write between two
// queries keeps the indexes the first one built. Under GoalDirected the
// program is magic-rewritten for the goal's binding pattern, so selective
// queries touch only the data their bindings can reach, and a later query
// of the shape derives into the extents the shape's last query left
// emptied (magic.Prepared.Eval). The answers are the evaluation's own
// slice, handed over without a copy.
func (p *Peer) QueryShape(ctx context.Context, q ShapeQuery) ([]Answer, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queryShape(ctx, q)
}

// queryShapeCap bounds how many compiled goal query shapes a peer keeps
// (DESIGN.md §14). An application asks a handful of shapes; a caller that
// builds a fresh shape per query overflows the cache, which then starts
// over rather than tracking recency.
const queryShapeCap = 64

// queryShape answers q, through the peer's compiled shape for q.Key when
// it is GoalDirected, compiling the shape on a miss. The caller holds
// p.mu, which serializes the evaluation against the peer's own writes.
func (p *Peer) queryShape(ctx context.Context, q ShapeQuery) ([]Answer, error) {
	var prep *magic.Prepared
	if q.Mode != FullFixpoint {
		prep = p.shapes[string(q.Key)]
	}
	var rules []datalog.Rule
	var goal datalog.Atom
	if prep == nil {
		var err error
		if rules, goal, err = magic.ParseShape(q.Key, q.Consts); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrInvalidQuery, err)
		}
		if err := validateGoalQuery(p.sys.Schema(p.name), rules, goal); err != nil {
			return nil, err
		}
	}
	sp := p.obsv.querySpan.Start(p.name)
	defer p.obsv.endSpan(sp, p.name)
	p.obsv.queries.Inc()
	defer p.obsv.observeRounds(p.obsv.roundsNow())
	if q.Mode != FullFixpoint && prep == nil {
		var err error
		if prep, err = magic.Prepare(rules, goal); err != nil {
			return nil, err
		}
		if p.shapes == nil || len(p.shapes) >= queryShapeCap {
			p.shapes = make(map[string]*magic.Prepared, queryShapeCap)
		}
		p.shapes[string(q.Key)] = prep
		p.obsv.prepares.Inc()
	}
	opts := datalog.Options{
		Provenance: !q.NoProvenance,
		Stats:      q.Stats,
	}
	if opts.Stats == nil {
		// Fold un-redirected query evaluation into the peer's shared stats, so
		// System.Metrics() reflects query work without callers wiring a struct.
		opts.Stats = p.obsv.stats
	}
	var out []Answer
	var err error
	p.local.EDB(func(edb *datalog.DB) {
		if q.Mode == FullFixpoint {
			out, err = magic.EvalGoalFull(ctx, rules, goal, edb, opts)
			return
		}
		replans := prep.Replans()
		out, err = prep.Eval(ctx, q.Consts, edb, opts)
		p.obsv.replans.Add(prep.Replans() - replans)
	})
	if err != nil {
		return nil, err
	}
	if q.NoProvenance {
		for i := range out {
			out[i].Prov = provenance.Poly{}
		}
	}
	return out, nil
}

// validateGoalQuery rejects malformed goal queries with ErrInvalidQuery
// detail before any evaluation work: missing goals, view heads that shadow
// stored relations or use reserved names, and goal/definition arity
// mismatches. Unknown body predicates are not errors — they evaluate over
// empty extents, like querying an empty relation. It reads only what a
// query's shape holds, so a compiled shape needs no second validation.
func validateGoalQuery(s *schema.Schema, rules []datalog.Rule, goal datalog.Atom) error {
	if goal.Pred == "" {
		return fmt.Errorf("%w: empty goal", ErrInvalidQuery)
	}
	ruleArity := map[string]int{}
	for _, r := range rules {
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
	if strings.Contains(goal.Pred, "@") {
		return fmt.Errorf("%w: goal %q uses a reserved name", ErrInvalidQuery, goal.Pred)
	}
	if rel := s.Relation(goal.Pred); rel != nil {
		if len(goal.Terms) != rel.Arity() {
			return fmt.Errorf("%w: goal %s has %d arguments; relation has arity %d",
				ErrInvalidQuery, goal.Pred, len(goal.Terms), rel.Arity())
		}
	} else if n, ok := ruleArity[goal.Pred]; ok && n != len(goal.Terms) {
		return fmt.Errorf("%w: goal %s has %d arguments; view has arity %d",
			ErrInvalidQuery, goal.Pred, len(goal.Terms), n)
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
