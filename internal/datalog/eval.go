package datalog

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

// Options configures evaluation.
type Options struct {
	// Provenance enables annotation computation. When false all facts are
	// annotated 1 and only tuple sets are computed (fastest).
	Provenance bool
	// MaxIterations bounds the fixpoint loop; 0 means the default (100000).
	MaxIterations int
	// MaxMonomials, when positive, bounds every stored annotation to that
	// many lowest-degree witness monomials (provenance.MergeWitness). On
	// dense or cyclic mapping graphs the number of alternative derivation
	// paths grows combinatorially; bounded witness sets keep evaluation
	// polynomial while preserving the short derivations that trust
	// conditions and deletion propagation use. 0 means unbounded.
	MaxMonomials int
	// ChaseSubsumption enables the chase-style redundancy check used for
	// schema-mapping programs: a derived tuple containing labeled nulls is
	// not emitted if an existing tuple of the same predicate subsumes it
	// (maps onto it by a consistent substitution of its nulls). This keeps
	// cyclic mapping graphs — e.g. ORCHESTRA's A→C join composed with the
	// C→A split — from echoing Skolem-padded variants of data the target
	// already has in concrete form.
	ChaseSubsumption bool
	// Stats, when non-nil, receives evaluation counters (probe counts,
	// pushdown hit rate, rounds — see EvalStats). The struct may be shared
	// across evaluations; counters accumulate.
	Stats *EvalStats
}

// DefaultMaxIterations is the fixpoint iteration bound when unspecified.
const DefaultMaxIterations = 100000

// EvalCtx evaluates the program over the EDB and returns a database
// containing both EDB and derived facts; the input database is not
// modified. It is Prepare followed by one Prepared.Eval.
// Cancellation is cooperative: the context is checked before evaluation
// starts, before every fixpoint iteration of each stratum, before each rule
// firing of a round, and every pipeCancelStride candidate rows within a
// firing, so an expired context returns ctx.Err() — typically
// context.DeadlineExceeded — without completing a single iteration, and a
// runaway recursive program stops within one round of the deadline.
func EvalCtx(ctx context.Context, p *Program, edb *DB, opts Options) (*DB, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pp, err := Prepare(p)
	if err != nil {
		return nil, err
	}
	return pp.Eval(ctx, edb, opts)
}

// Prepared is a program validated and stratified once, whose plans are
// kept from one evaluation to the next. A plan is built at the start of
// its stratum, as an Eval of the program alone would build it, and reused
// while the relation sizes it broke ties by still order the same way (see
// planTie); otherwise it is rebuilt. A Prepared is safe for concurrent
// Evals and holds no database state.
type Prepared struct {
	prog   *Program
	strata []preparedStratum
	// replans counts rules re-planned because a size tie came out
	// differently.
	replans atomic.Int64

	mu sync.Mutex // guards each stratum's plans
}

// preparedStratum is one stratum's rules, the predicates whose changes can
// seed further rounds, and the plans of its last evaluation (nil before the
// first). A plan set is replaced, never mutated, so an Eval keeps using the
// set it validated.
type preparedStratum struct {
	rules []Rule
	need  map[string]bool
	plans []rulePlans
}

// Prepare validates and stratifies p. Its Eval runs p as EvalCtx would.
func Prepare(p *Program) (*Prepared, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	strata, err := p.Stratify()
	if err != nil {
		return nil, err
	}
	pp := &Prepared{prog: p, strata: make([]preparedStratum, len(strata))}
	for si, rules := range strata {
		pp.strata[si] = preparedStratum{rules: rules, need: stratumNeed(rules)}
	}
	return pp, nil
}

// stratumNeed names the predicates that appear positively in some body of
// the stratum: only their changes can seed further rounds (strata are
// closed under dependencies), so delta entries for anything else are dead
// weight that the merge barrier filters out.
func stratumNeed(rules []Rule) map[string]bool {
	need := map[string]bool{}
	for _, r := range rules {
		for _, l := range r.Body {
			if l.Builtin == nil && !l.Negated {
				need[l.Atom.Pred] = true
			}
		}
	}
	return need
}

// Replans reports how many times the Prepared has re-planned a rule because
// a relation-size tie one of its plans was built on came out differently.
func (pp *Prepared) Replans() int64 { return pp.replans.Load() }

// Eval evaluates the prepared program over the EDB and returns a database
// holding both EDB and derived facts; edb is not modified. Cancellation
// behaves as in EvalCtx.
func (pp *Prepared) Eval(ctx context.Context, edb *DB, opts Options) (*DB, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// An O(#preds) copy-on-write snapshot replaces the old deep clone: the
	// caller's EDB is untouched, and only relations evaluation actually
	// mutates (head predicates) are ever copied.
	result := edb.Snapshot()
	ensurePreds(pp.prog, result)
	for si := range pp.strata {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		st := &pp.strata[si]
		if err := evalStratum(ctx, st.rules, pp.plansAt(si, result), st.need, result, opts, nil, nil); err != nil {
			return nil, err
		}
	}
	return result, nil
}

// plansAt returns stratum si's plans for db as it stands at the stratum's
// start: the kept ones whose size ties still hold, and fresh ones for the
// rest (all of them on the first evaluation). Queries, Recompute and update
// exchange all take their plans from here.
func (pp *Prepared) plansAt(si int, db *DB) []rulePlans {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	st := &pp.strata[si]
	if st.plans == nil {
		st.plans = make([]rulePlans, len(st.rules))
		for i, r := range st.rules {
			st.plans[i] = buildRulePlans(r, db)
		}
		return st.plans
	}
	var fresh []rulePlans // copy-on-write: another Eval may hold st.plans
	for i, rp := range st.plans {
		if rp.tiesHold(db) {
			continue
		}
		if fresh == nil {
			fresh = slices.Clone(st.plans)
		}
		fresh[i] = buildRulePlans(st.rules[i], db)
		pp.replans.Add(1)
	}
	if fresh != nil {
		st.plans = fresh
	}
	return st.plans
}

// ensurePreds materializes an extent for every predicate the program can
// touch. A firing only creates the extents it reaches (a body literal after
// an empty one is never probed), so without it the predicates a result
// lists — and with them its snapshot encoding — would depend on which
// rules happened to derive something.
func ensurePreds(p *Program, db *DB) {
	for _, r := range p.Rules {
		db.Rel(r.Head.Pred)
		for _, l := range r.Body {
			if l.Builtin == nil {
				db.Rel(l.Atom.Pred)
			}
		}
	}
}

// deltaFact pairs a tuple with the annotation portion that is new this
// iteration and must still be propagated.
type deltaFact struct {
	tuple schema.Tuple
	prov  provenance.Poly
}

// pendingDelta is a stratum's delta under construction: per predicate, the
// new annotation part of each changed fact, keyed by the fact's slot.
type pendingDelta map[string]map[uint32]deltaFact

// add folds one merge's genuinely new annotation part into the delta. The
// same tuple can reach a delta more than once (distinct derivations or
// tokens): its delta annotation accumulates, never overwrites.
func (delta pendingDelta) add(mr mergeResult) {
	m := delta[mr.pred]
	if m == nil {
		m = map[uint32]deltaFact{}
		delta[mr.pred] = m
	}
	if df, ok := m[mr.slot]; ok {
		df.prov = df.prov.Add(mr.newPart)
		m[mr.slot] = df
	} else {
		m[mr.slot] = deltaFact{tuple: mr.tuple, prov: mr.newPart}
	}
}

// deltaList flattens one predicate's pending delta into the slice form jobs
// consume, in storage-key order (schema.CompareKeys: the order of the
// tuples' Key encodings), so the enumeration order of every downstream
// join — and with it the change log — is identical across runs instead of
// following map iteration order.
func deltaList(m map[uint32]deltaFact) []deltaFact {
	out := make([]deltaFact, 0, len(m))
	for _, df := range m {
		out = append(out, df)
	}
	slices.SortFunc(out, func(a, b deltaFact) int { return schema.CompareKeys(a.tuple, b.tuple) })
	return out
}

// deltaJobs appends one semi-naive job per (rule, positive body position)
// whose predicate has pending delta, each joining the rule with that
// predicate's delta at the position. Each predicate's delta is flattened
// once and shared by every job that reads it.
func deltaJobs(jobs []job, rules []Rule, plans []rulePlans, delta pendingDelta) []job {
	lists := map[string][]deltaFact{}
	for ri, r := range rules {
		for i, l := range r.Body {
			if l.Builtin != nil || l.Negated || len(delta[l.Atom.Pred]) == 0 {
				continue
			}
			dl, ok := lists[l.Atom.Pred]
			if !ok {
				dl = deltaList(delta[l.Atom.Pred])
				lists[l.Atom.Pred] = dl
			}
			jobs = append(jobs, job{rule: r, pln: plans[ri].delta[i], delta: dl})
		}
	}
	return jobs
}

// evalStratum runs one stratum to fixpoint under its plans, checking the
// context once per iteration so runaway recursion stops on cancellation or
// deadline. With a nil seed it opens with a naive round that fires every
// rule over the whole database (full evaluation); with a seed it starts
// semi-naive from that delta, which it takes over (incremental insertion).
// need names the predicates whose changes can seed further rounds; observe,
// when non-nil, sees every effective merge, needed or not.
//
// A round fires its jobs in order on the caller's goroutine, and each
// emitted head fact merges as soon as it is derived, so a later rule of the
// round sees facts an earlier one merged. The merge order, and with it the
// fixpoint and its provenance, is fixed by the job order and deltaList's
// key order.
func evalStratum(ctx context.Context, rules []Rule, plans []rulePlans, need map[string]bool, db *DB, opts Options, seed pendingDelta, observe func(mergeResult)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	maxIter := opts.MaxIterations
	if maxIter <= 0 {
		maxIter = DefaultMaxIterations
	}
	delta := seed
	sink := mergeSink{opts: opts, absorb: func(mr mergeResult) {
		if observe != nil {
			observe(mr)
		}
		if need[mr.pred] {
			delta.add(mr)
		}
	}}
	var scratch pipeScratch
	jobs := make([]job, 0, len(rules))
	if seed == nil {
		delta = pendingDelta{}
		for ri, r := range rules {
			jobs = append(jobs, job{rule: r, pln: plans[ri].full})
		}
	}
	// Round 0 is the naive round (no jobs when seeded); every later round
	// joins each rule with the previous round's delta at one position.
	for iter := 0; ; iter++ {
		if len(jobs) > 0 && opts.Stats != nil {
			opts.Stats.Rounds.Add(1)
		}
		for i := range jobs {
			if err := ctx.Err(); err != nil {
				return err
			}
			j := &jobs[i]
			sink.pred = j.rule.Head.Pred
			sink.rel = db.MutableRel(sink.pred)
			if err := fireRuleStream(ctx, j.rule, j.pln, db, j.delta, opts, &sink, &scratch); err != nil {
				return err
			}
		}
		if len(delta) == 0 {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if iter >= maxIter {
			return fmt.Errorf("datalog: fixpoint not reached after %d iterations", maxIter)
		}
		jobs = deltaJobs(jobs[:0], rules, plans, delta)
		delta = pendingDelta{}
	}
}

// job is one rule firing scheduled within a stratum round: a rule, its
// compiled plan, and (for semi-naive rounds) the delta slice substituted at
// the plan's delta position.
type job struct {
	rule  Rule
	pln   *plan
	delta []deltaFact
}

// mergeResult describes the outcome of folding one derived fact into its
// relation: the slot it is stored at, the genuinely new annotation part, and
// whether the tuple itself was absent before the merge.
type mergeResult struct {
	pred    string
	slot    uint32
	tuple   schema.Tuple
	newPart provenance.Poly
	fresh   bool
}

// merge folds a derived annotation into the stored fact. It returns the
// merge outcome (pred left for the caller to fill) and whether anything
// changed.
func merge(rel *Rel, t schema.Tuple, p provenance.Poly, opts Options) (mergeResult, bool) {
	return mergeHashed(rel, t.Hash(), t, p, opts)
}

// mergeHashed is merge with the tuple's Hash supplied by the caller: the
// streaming pipelines hash head tuples once, for the skip check and the
// merge alike.
func mergeHashed(rel *Rel, h uint64, t schema.Tuple, p provenance.Poly, opts Options) (mergeResult, bool) {
	s, ok := rel.find(h, t)
	if !opts.Provenance {
		if ok {
			return mergeResult{slot: s, tuple: t}, false
		}
		s = rel.insert(h, t, provenance.One().Intern())
		return mergeResult{slot: s, tuple: t, newPart: provenance.One(), fresh: true}, true
	}
	var stored provenance.Poly
	if ok {
		stored = rel.fact(s).Prov
	}
	merged, newPart, changed, truncated := provenance.MergeWitness(stored, p, opts.MaxMonomials)
	if truncated && opts.Stats != nil {
		opts.Stats.Truncations.Add(1)
	}
	if !ok {
		s = rel.insert(h, t, merged.Intern())
		return mergeResult{slot: s, tuple: t, newPart: merged, fresh: true}, true
	}
	if !changed {
		return mergeResult{slot: s, tuple: t}, false
	}
	rel.fact(s).Prov = merged.Intern()
	return mergeResult{slot: s, tuple: t, newPart: newPart}, true
}

// compare applies a builtin comparison to two values.
func compare(op CmpOp, l, r schema.Value) bool {
	switch op {
	case OpEq:
		return l.Equal(r)
	case OpNe:
		return !l.Equal(r)
	case OpLt:
		return l.Compare(r) < 0
	case OpLe:
		return l.Compare(r) <= 0
	case OpGt:
		return l.Compare(r) > 0
	case OpGe:
		return l.Compare(r) >= 0
	default:
		return false
	}
}

// subsumedByExisting reports whether some stored tuple is a homomorphic
// image of t: equal at t's concrete positions, with a consistent
// substitution for t's labeled nulls. Candidates come from the index on t's
// concrete columns; a null's image is checked against its first
// occurrence's, so no substitution map is built.
func subsumedByExisting(rel *Rel, t schema.Tuple) bool {
	var colBuf [8]int
	cols := colBuf[:0]
	h := schema.HashStart
	for i, v := range t {
		if !v.IsLabeledNull() {
			cols = append(cols, i)
			h = v.FoldHash(h)
		}
	}
	ci := rel.ensureIndex(cols)
	for s, end := ci.probe(h); s != noSlot; s = ci.next[s] {
		if subsumes(rel.fact(s).Tuple, t, cols) {
			return true
		}
		if s == end {
			break
		}
	}
	return false
}

// subsumes reports whether stored tuple u is a homomorphic image of t other
// than t itself: of t's arity, equal on t's concrete columns cols, and
// mapping every occurrence of one labeled null of t to one value.
func subsumes(u, t schema.Tuple, cols []int) bool {
	if len(u) != len(t) || u.Equal(t) {
		return false
	}
	for _, c := range cols {
		if !u[c].Equal(t[c]) {
			return false
		}
	}
	for i, v := range t {
		if !v.IsLabeledNull() {
			continue
		}
		for j := 0; j < i; j++ {
			if t[j].Equal(v) {
				if !u[i].Equal(u[j]) {
					return false
				}
				break
			}
		}
	}
	return true
}
