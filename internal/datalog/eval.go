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
// evaluations. It holds no fact: between evaluations it keeps at most one
// idle workspace for EvalScoped, which holds capacity only.
type Prepared struct {
	prog   *Program
	strata []preparedStratum
	// replans counts rules re-planned because a size tie came out
	// differently.
	replans atomic.Int64
	// ws is the idle workspace, nil while an EvalScoped holds it (or
	// before the first one).
	ws atomic.Pointer[workspace]

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
	var sc stratumScratch
	if err := pp.evalStrata(ctx, result, opts, &sc); err != nil {
		return nil, err
	}
	return result, nil
}

// EvalScoped evaluates the prepared program as Eval does, over edb plus
// one seed fact of seedPred annotated 1 (none when seedPred is empty), and
// hands the result to read. The result lives only until read returns:
// read must keep no database, extent, fact or tuple of it (annotations
// are immutable and may be kept). In exchange the evaluation runs in the
// Prepared's workspace and reuses the capacity of the last successful
// one's derived extents and scratch. edb is never modified, and must not
// be modified before EvalScoped returns. Concurrent calls are safe: the
// workspace is taken by an atomic swap, so a call that finds it taken
// builds its own. A workspace goes back only after read has run, so one
// that a failed or cancelled evaluation left half-filled is dropped.
func (pp *Prepared) EvalScoped(ctx context.Context, edb *DB, seedPred string, seed schema.Tuple, opts Options, read func(*DB)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	ws := pp.ws.Swap(nil)
	if ws == nil {
		ws = &workspace{db: NewDB()}
		ws.sc.arena = &ws.arena
	}
	db := ws.view(edb)
	if seedPred != "" {
		t := ws.arena.tuple(len(seed))
		copy(t, seed)
		db.Set(seedPred, t, provenance.One())
	}
	if err := pp.evalStrata(ctx, db, opts, &ws.sc); err != nil {
		return err
	}
	read(db)
	ws.reset()
	pp.ws.Store(ws)
	return nil
}

// evalStrata runs every stratum to fixpoint over db, in place.
func (pp *Prepared) evalStrata(ctx context.Context, db *DB, opts Options, sc *stratumScratch) error {
	ensurePreds(pp.prog, db)
	for si := range pp.strata {
		if err := ctx.Err(); err != nil {
			return err
		}
		st := &pp.strata[si]
		if err := evalStratum(ctx, st.rules, pp.plansAt(si, db), st.need, db, opts, sc, nil); err != nil {
			return err
		}
	}
	return nil
}

// workspace is what EvalScoped evaluates in, kept by its Prepared for the
// next scoped evaluation: a database whose map and derived extents keep
// their capacity, the stratum scratch, and the arena the derived tuples
// are carved from. Between evaluations it holds no fact, no value, and
// nothing of any EDB.
//
// The database is a view, not a snapshot: for one evaluation its map holds
// the EDB's extents beside the workspace's own, and the EDB keeps its
// ownership. That is sound because the view dies before EvalScoped
// returns, and the EDB is not written meanwhile. The view's ownership never
// changes, so its own extents stay stamped with it and merge in place,
// while an EDB extent it writes is copied on write as in any snapshot.
type workspace struct {
	db    *DB
	sc    stratumScratch
	arena valueArena
}

// view lends edb's extents to the workspace's database for one
// evaluation; an EDB extent shadows a kept one of the same predicate.
func (ws *workspace) view(edb *DB) *DB {
	for p, r := range edb.rels {
		ws.db.rels[p] = r
	}
	return ws.db
}

// reset ends an evaluation: it hands back the lent EDB extents, empties
// the workspace's own in O(facts the evaluation derived) (see Rel.reset),
// and drops the values the pipeline buffers still hold. Ranging over the
// map costs its capacity, which the program's and the EDB's predicates
// bound. The stratum's deltas and job list are empty already: evalStratum
// leaves them so when it succeeds.
func (ws *workspace) reset() {
	own := ws.db.owner.Load()
	for p, r := range ws.db.rels {
		if r.owner != own {
			delete(ws.db.rels, p)
			continue
		}
		r.reset()
	}
	ws.sc.pipe.reset()
	ws.arena.reset()
}

// valueArena carves tuples from arrays of values that it keeps across
// scoped evaluations, so a warm evaluation allocates no tuple of its own.
// Each new array is at least twice the one before, so the arrays hold at
// most twice the values an evaluation used. A tuple it hands out is valid
// until reset, which clears the values used since the last reset and
// nothing else. A nil arena allocates every tuple.
type valueArena struct {
	chunks [][]schema.Value
	used   int // chunks handed out from since the last reset
}

// tuple returns a zeroed tuple of n values.
func (a *valueArena) tuple(n int) schema.Tuple {
	if a == nil {
		return make(schema.Tuple, n)
	}
	if a.used > 0 {
		if c := a.chunks[a.used-1]; cap(c)-len(c) >= n {
			a.chunks[a.used-1] = c[:len(c)+n]
			return c[len(c) : len(c)+n : len(c)+n]
		}
	}
	if a.used == len(a.chunks) || cap(a.chunks[a.used]) < n {
		size := n
		if a.used > 0 {
			size = max(n, 2*cap(a.chunks[a.used-1]))
		}
		c := make([]schema.Value, 0, size)
		if a.used == len(a.chunks) {
			a.chunks = append(a.chunks, c)
		} else {
			a.chunks[a.used] = c
		}
	}
	c := a.chunks[a.used][:n]
	a.chunks[a.used] = c
	a.used++
	return c[:n:n]
}

// reset clears the values handed out since the last reset and keeps the
// arrays.
func (a *valueArena) reset() {
	for i := range a.chunks[:a.used] {
		clear(a.chunks[i])
		a.chunks[i] = a.chunks[i][:0]
	}
	a.used = 0
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
// new annotation part of every effective merge, in merge order (a tuple
// merged more than once has one entry per merge until fold), and the
// predicates that have any. The zero value is empty; reset empties it but
// keeps every predicate's buffer.
type pendingDelta struct {
	facts map[string]*[]deltaFact
	preds []string // the predicates with pending facts, in first-merge order
}

// add appends one merge's genuinely new annotation part to the delta.
func (d *pendingDelta) add(mr mergeResult) {
	dl := d.facts[mr.pred]
	if dl == nil {
		if d.facts == nil {
			d.facts = map[string]*[]deltaFact{}
		}
		dl = new([]deltaFact)
		d.facts[mr.pred] = dl
	}
	if len(*dl) == 0 {
		d.preds = append(d.preds, mr.pred)
	}
	*dl = append(*dl, deltaFact{tuple: mr.tuple, prov: mr.newPart})
}

// of returns pred's pending facts.
func (d *pendingDelta) of(pred string) []deltaFact {
	if dl := d.facts[pred]; dl != nil {
		return *dl
	}
	return nil
}

// empty reports whether no fact is pending.
func (d *pendingDelta) empty() bool { return len(d.preds) == 0 }

// reset empties the delta, keeping every predicate's buffer. The entries
// are cleared, not just cut off, so a kept buffer holds no tuple or
// annotation of a finished round for the collector to trace.
func (d *pendingDelta) reset() {
	for _, pred := range d.preds {
		dl := d.facts[pred]
		clear(*dl)
		*dl = (*dl)[:0]
	}
	d.preds = d.preds[:0]
}

// fold turns every predicate's pending facts, in place, into its delta list
// (deltaList).
func (d *pendingDelta) fold() {
	for _, pred := range d.preds {
		dl := d.facts[pred]
		*dl = deltaList(*dl)
	}
}

// deltaList turns one predicate's pending delta, in place, into the slice
// form jobs consume: in storage-key order (schema.CompareKeys: the order of
// the tuples' Key encodings), with the entries of one tuple folded into one
// whose annotation is the union of theirs. The order makes the enumeration
// order of every downstream join — and with it the change log — identical
// across runs.
func deltaList(dl []deltaFact) []deltaFact {
	slices.SortFunc(dl, func(a, b deltaFact) int { return schema.CompareKeys(a.tuple, b.tuple) })
	out := dl[:0]
	for _, df := range dl {
		if n := len(out); n > 0 && schema.CompareKeys(out[n-1].tuple, df.tuple) == 0 {
			out[n-1].prov = out[n-1].prov.Add(df.prov)
			continue
		}
		out = append(out, df)
	}
	clear(dl[len(out):]) // the entries folded away, which reset no longer sees
	return out
}

// stratumScratch is what evalStratum works in: the delta the current round
// merges into, the previous round's delta folded into the lists its jobs
// read, the job list and the pipeline buffers. The two deltas trade places
// every round, and every buffer keeps its capacity but is cleared as it is
// emptied, so no fact outlives the round that used it. A one-shot
// evaluation keeps one for its strata; an Incremental keeps one for its
// lifetime, so a stream of small insertions does not allocate them per
// call.
type stratumScratch struct {
	delta, lists pendingDelta
	jobs         []job
	pipe         pipeScratch
	// arena, when set, holds the tuples the sink stores: only a scoped
	// evaluation's, whose extents are emptied when it ends (workspace).
	arena *valueArena
}

// deltaJobs makes the pending delta the lists and fills sc.jobs with one
// semi-naive job per (rule, positive body position) whose predicate has
// pending delta, each joining the rule with that predicate's list at the
// position. Each predicate's delta is folded once and shared by every job
// that reads it; the delta left for the next round is empty.
func (sc *stratumScratch) deltaJobs(rules []Rule, plans []rulePlans) {
	sc.delta, sc.lists = sc.lists, sc.delta
	sc.delta.reset()
	sc.lists.fold()
	clear(sc.jobs)
	sc.jobs = sc.jobs[:0]
	for ri, r := range rules {
		for i, l := range r.Body {
			if l.Builtin != nil || l.Negated {
				continue
			}
			if dl := sc.lists.of(l.Atom.Pred); len(dl) > 0 {
				sc.jobs = append(sc.jobs, job{rule: r, pln: plans[ri].delta[i], delta: dl})
			}
		}
	}
}

// evalStratum runs one stratum to fixpoint under its plans, checking the
// context once per iteration so runaway recursion stops on cancellation or
// deadline. With an empty sc.delta it opens with a naive round that fires
// every rule over the whole database (full evaluation); otherwise it starts
// semi-naive from that delta (incremental insertion). need names the
// predicates whose changes can seed further rounds; observe, when non-nil,
// sees every effective merge, needed or not. It returns with sc.delta empty
// unless it fails.
//
// A round fires its jobs in order on the caller's goroutine, and each
// emitted head fact merges as soon as it is derived, so a later rule of the
// round sees facts an earlier one merged. The merge order, and with it the
// fixpoint and its provenance, is fixed by the job order and deltaList's
// key order.
func evalStratum(ctx context.Context, rules []Rule, plans []rulePlans, need map[string]bool, db *DB, opts Options, sc *stratumScratch, observe func(mergeResult)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	maxIter := opts.MaxIterations
	if maxIter <= 0 {
		maxIter = DefaultMaxIterations
	}
	sink := mergeSink{opts: opts, need: need, delta: &sc.delta, observe: observe, arena: sc.arena}
	clear(sc.jobs)
	sc.jobs = slices.Grow(sc.jobs[:0], len(rules))
	if sc.delta.empty() {
		for ri, r := range rules {
			sc.jobs = append(sc.jobs, job{rule: r, pln: plans[ri].full})
		}
	}
	// Round 0 is the naive round (no jobs when seeded); every later round
	// joins each rule with the previous round's delta at one position.
	for iter := 0; ; iter++ {
		if len(sc.jobs) > 0 && opts.Stats != nil {
			opts.Stats.Rounds.Add(1)
		}
		for i := range sc.jobs {
			if err := ctx.Err(); err != nil {
				return err
			}
			j := &sc.jobs[i]
			sink.pred = j.rule.Head.Pred
			sink.rel = db.MutableRel(sink.pred)
			if err := fireRuleStream(ctx, j.rule, j.pln, db, j.delta, opts, &sink, &sc.pipe); err != nil {
				return err
			}
		}
		if sc.delta.empty() {
			sc.lists.reset()
			clear(sc.jobs)
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if iter >= maxIter {
			return fmt.Errorf("datalog: fixpoint not reached after %d iterations", maxIter)
		}
		sc.deltaJobs(rules, plans)
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
	h := t.Hash()
	if s, ok := rel.find(h, t); ok {
		return mergeStored(rel, s, p, opts)
	}
	return mergeAbsent(rel, h, t, p, opts), true
}

// mergeStored folds p into the fact stored at slot s. The result carries
// the stored tuple, so a derivation of a stored row never copies it.
func mergeStored(rel *Rel, s uint32, p provenance.Poly, opts Options) (mergeResult, bool) {
	f := rel.fact(s)
	if !opts.Provenance {
		return mergeResult{slot: s, tuple: f.Tuple}, false
	}
	merged, newPart, changed, truncated := provenance.MergeWitness(f.Prov, p, opts.MaxMonomials)
	if truncated && opts.Stats != nil {
		opts.Stats.Truncations.Add(1)
	}
	if !changed {
		return mergeResult{slot: s, tuple: f.Tuple}, false
	}
	f.Prov = merged.Intern()
	return mergeResult{slot: s, tuple: f.Tuple, newPart: newPart}, true
}

// mergeAbsent stores t, whose hash is h and which rel does not hold, with
// the annotation p; t is kept, not copied.
func mergeAbsent(rel *Rel, h uint64, t schema.Tuple, p provenance.Poly, opts Options) mergeResult {
	if !opts.Provenance {
		s := rel.insert(h, t, provenance.One().Intern())
		return mergeResult{slot: s, tuple: t, newPart: provenance.One(), fresh: true}
	}
	merged, _, _, truncated := provenance.MergeWitness(provenance.Poly{}, p, opts.MaxMonomials)
	if truncated && opts.Stats != nil {
		opts.Stats.Truncations.Add(1)
	}
	s := rel.insert(h, t, merged.Intern())
	return mergeResult{slot: s, tuple: t, newPart: merged, fresh: true}
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
	for s, end := ci.probe(h); s != noSlot; s = ci.links.at(s).next {
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
