package datalog

import (
	"context"
	"fmt"
	"sync/atomic"

	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

// This file is the streaming evaluator: a compiled plan (planner.go)
// executes as a composed iterator pipeline instead of a materialized
// binding relation. Each plan step is a pull-based operator — index probe,
// full scan, delta scan (with a transient hash build for probed deltas),
// comparison filter, negation check — that yields one (slots, annotation)
// row at a time into the step below it. A rule firing therefore holds one
// row of state per step: the only thing the engine ever materializes is the
// fixpoint itself (stored facts plus the semi-naive delta), never the
// intermediate binding sets.
//
// Re-iteration needs no extra buffering: a step that is re-entered re-probes
// its relation, and the hash-index layer (index.go) keeps every probed
// chain — including the empty-column full-scan chain — linked in place. A
// scan cursor holds the chain's first slot and the last slot present at the
// probe, so it walks exactly the facts stored when it was entered.
//
// Head rows leave the pipeline through a mergeSink. The sink sees the head
// tuple's hash and values (in a reused buffer) before the tuple is
// materialized, so it can both merge without hashing again and veto
// provably redundant emissions before they allocate anything.

// pipeCancelStride is how many candidate rows a pipeline examines between
// cooperative context checks, so cancellation lands mid-enumeration instead
// of waiting out a huge cross product. Must be a power of two: the scan
// loops test it with a mask so the per-candidate cost is one AND.
const pipeCancelStride = 4096

// deltaHashMin is the smallest delta extent worth building a transient hash
// table over when a plan probes the delta with bound columns. Below it the
// linear scan wins (and the build allocation is not worth it).
const deltaHashMin = 16

// mergeSink merges every head fact a pipeline emits into the live head
// relation as soon as it is derived, so a later rule of the same round sees
// facts merged by an earlier one. It reports each effective change through
// absorb.
type mergeSink struct {
	rel    *Rel
	pred   string
	opts   Options
	absorb func(mergeResult)
}

// skip reports whether emitting (t, prov) provably could not change the
// head relation, letting the pipeline drop the row before the head tuple
// is materialized: the relation already stores t (hash h) with an
// annotation that absorbs prov. t aliases a reused buffer valid only for
// the call.
func (s *mergeSink) skip(h uint64, t schema.Tuple, prov provenance.Poly) bool {
	slot, ok := s.rel.find(h, t)
	if !ok {
		return false
	}
	return !s.opts.Provenance || s.rel.fact(slot).Prov.Subsumes(prov)
}

// emit merges one head fact; t is freshly allocated and h is its Hash.
func (s *mergeSink) emit(h uint64, t schema.Tuple, prov provenance.Poly) {
	mr, changed := mergeHashed(s.rel, h, t, prov, s.opts)
	if changed {
		mr.pred = s.pred
		s.absorb(mr)
	}
}

// EvalStats collects evaluation counters when installed via Options.Stats.
// All fields are atomic: one stats struct may be shared by concurrent
// evaluations (every peer of a system feeds one). Counters accumulate
// across rounds, strata, and (if the caller reuses the struct) evaluations.
type EvalStats struct {
	// Probes counts index probes issued by scan steps.
	Probes atomic.Int64
	// PushdownProbes counts probes whose key included at least one column
	// bound by a pushed-down equality filter rather than a join variable or
	// an atom constant (see planner.go).
	PushdownProbes atomic.Int64
	// Candidates counts facts surfaced by scan steps after the index probe.
	Candidates atomic.Int64
	// Emitted counts head facts handed to the merge layer.
	Emitted atomic.Int64
	// Suppressed counts emissions vetoed by the pre-merge subsumption check
	// before the head tuple was materialized.
	Suppressed atomic.Int64
	// HashJoinBuilds counts transient hash tables built over delta extents.
	HashJoinBuilds atomic.Int64
	// Rounds counts executed stratum rounds (naive and semi-naive).
	Rounds atomic.Int64
	// ParallelRounds, WorkersUsed and PeakLive are always zero: every round
	// fires its rules in order on the caller's goroutine and merges each
	// head fact as it is derived. They are kept only because the repo
	// benchmark (bench/) reads them.
	ParallelRounds atomic.Int64
	WorkersUsed    atomic.Int64
	PeakLive       atomic.Int64
	// Truncations counts merges whose MaxMonomials cut dropped at least one
	// witness monomial (provenance.MergeWitness).
	Truncations atomic.Int64
	// TokenIndexBuilds counts scans that built an incremental engine's
	// deletion index: at most one per engine, at its first DeleteBase,
	// Affected or DependentCount — after a restore too.
	TokenIndexBuilds atomic.Int64
}

// PushdownRate returns the fraction of index probes whose key carried at
// least one pushed-down filter column — the pushdown hit rate.
func (s *EvalStats) PushdownRate() float64 {
	p := s.Probes.Load()
	if p == 0 {
		return 0
	}
	return float64(s.PushdownProbes.Load()) / float64(p)
}

// String renders the counters on one line, for logs and test failures.
func (s *EvalStats) String() string {
	return fmt.Sprintf(
		"probes=%d pushdown=%d candidates=%d emitted=%d suppressed=%d hashjoins=%d rounds=%d truncations=%d tokenindexbuilds=%d",
		s.Probes.Load(), s.PushdownProbes.Load(), s.Candidates.Load(), s.Emitted.Load(),
		s.Suppressed.Load(), s.HashJoinBuilds.Load(), s.Rounds.Load(), s.Truncations.Load(),
		s.TokenIndexBuilds.Load())
}

// pipeCursor is one operator's mutable state: its candidate source, scan
// position, and the annotation product up to and including its current row.
type pipeCursor struct {
	// Stored-relation scans walk one index chain from slot to end (the
	// chain's last slot at enter); slot is noSlot once the walk is done.
	rel       *Rel
	ci        *colIndex
	slot, end uint32
	hash      []int32 // delta hash bucket: indices into the delta slice
	hashed    bool    // delta step resolved through the transient hash table
	pos       int
	done      bool // filter/negation steps: condition already consumed
	prov      provenance.Poly
}

// pipeline executes one rule firing as a composed pull pipeline over the
// plan's steps.
type pipeline struct {
	rule    Rule
	pln     *plan
	db      *DB
	delta   []deltaFact
	opts    Options
	ctx     context.Context
	useProv bool

	env     []schema.Value
	cur     []pipeCursor
	keyBuf  []byte       // Skolem terms under construction
	tupBuf  schema.Tuple // negation probe tuples
	headBuf schema.Tuple // head values, reused across emissions

	// deltaHash is the transient hash table over the delta extent, built on
	// first probe of a delta step with bound columns (a plan has at most one
	// delta step). This is the hash-join operator for the one join input the
	// index layer cannot cover: stored relations are always probed through
	// their lazily built persistent indexes, so the delta slice is the only
	// stream-side input, and hashing it once replaces a linear re-scan per
	// outer row.
	deltaHash map[uint64][]int32

	ticks                                                         int
	probes, pushProbes, candidates, emitted, suppressed, hjBuilds int64
}

// pipeScratch carries a pipeline's reusable buffers across firings, so a
// round of many small firings pays the environment, cursor, and key-buffer
// allocations once instead of per rule. Each fixpoint (evalStratum) keeps
// one.
type pipeScratch struct {
	env     []schema.Value
	cur     []pipeCursor
	keyBuf  []byte
	tupBuf  schema.Tuple
	headBuf schema.Tuple
}

// fireRuleStream enumerates all satisfying assignments of the rule body as
// a composed iterator pipeline, feeding each head fact to sink, in the
// plan's step order (depth-first, candidates in chain or delta order). If
// the plan's delta position is set, that body literal ranges over the delta
// slice (with delta annotations) instead of the full extent. sc's buffers
// are borrowed for this firing and returned grown.
func fireRuleStream(ctx context.Context, r Rule, pln *plan, db *DB, delta []deltaFact,
	opts Options, sink *mergeSink, sc *pipeScratch) error {

	p := pipeline{
		rule:    r,
		pln:     pln,
		db:      db,
		delta:   delta,
		opts:    opts,
		ctx:     ctx,
		useProv: opts.Provenance && !pln.provNeutral,
		env:     sc.env,
		cur:     sc.cur,
		keyBuf:  sc.keyBuf,
		tupBuf:  sc.tupBuf,
		headBuf: sc.headBuf,
	}
	if cap(p.env) < pln.nslots {
		p.env = make([]schema.Value, pln.nslots)
	} else {
		p.env = p.env[:pln.nslots]
		clear(p.env)
	}
	if cap(p.cur) < len(pln.steps) {
		p.cur = make([]pipeCursor, len(pln.steps))
	} else {
		// enter() resets every cursor field the operators read; stale
		// relation references only live until the next firing overwrites
		// them.
		p.cur = p.cur[:len(pln.steps)]
	}
	err := p.run(ctx, sink)
	p.flushStats()
	sc.env, sc.cur, sc.keyBuf, sc.tupBuf, sc.headBuf = p.env, p.cur, p.keyBuf, p.tupBuf, p.headBuf
	return err
}

// run drives the operator stack: advance the deepest cursor, descend on a
// row, back up on exhaustion, emit at the bottom: a depth-first walk in
// candidate order, which the recursive test oracle (oracle_test.go) mirrors
// row for row.
func (p *pipeline) run(ctx context.Context, sink *mergeSink) error {
	n := len(p.pln.steps)
	if n == 0 {
		return p.emitRow(provenance.One(), sink)
	}
	depth := 0
	p.enter(0)
	for depth >= 0 {
		// Accumulated across next() calls; a long scan inside one call
		// checks on its own stride boundaries.
		if p.ticks >= pipeCancelStride {
			p.ticks = 0
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		ok, err := p.next(depth)
		if err != nil {
			return err
		}
		if !ok {
			depth--
			continue
		}
		if depth == n-1 {
			if err := p.emitRow(p.cur[depth].prov, sink); err != nil {
				return err
			}
			continue
		}
		depth++
		p.enter(depth)
	}
	return nil
}

// enter resets the cursor at depth and resolves a scan step's candidate
// source. For stored relations the probe values — constants, join slots,
// and pushed-down filter columns alike — are hashed from the environment,
// and the index chain under that hash becomes the candidate walk. For a
// probed delta step the (lazily built) delta hash table is consulted
// instead.
func (p *pipeline) enter(depth int) {
	st := &p.pln.steps[depth]
	cs := &p.cur[depth]
	cs.pos = 0
	cs.done = false
	if st.kind != stepScan {
		return
	}
	if st.isDelta {
		cs.rel, cs.ci = nil, nil
		cs.hash = nil
		cs.hashed = len(st.boundCols) > 0 && len(p.delta) >= deltaHashMin
		if cs.hashed {
			if p.deltaHash == nil {
				p.buildDeltaHash(st)
			}
			cs.hash = p.deltaHash[p.probeHash(st)]
		}
		return
	}
	p.probes++
	if st.pushed > 0 {
		p.pushProbes++
	}
	cs.rel = p.db.Rel(st.pred)
	cs.ci = cs.rel.ensureIndex(st.boundCols)
	cs.slot, cs.end = cs.ci.probe(p.probeHash(st))
}

// probeHash hashes a scan step's probe values, as projHash hashes a
// stored tuple's projection on the probed columns.
func (p *pipeline) probeHash(st *planStep) uint64 {
	h := schema.HashStart
	for _, pt := range st.probes {
		h = pt.value(p.env).FoldHash(h)
	}
	return h
}

// buildDeltaHash materializes the transient hash table over the delta
// extent, keyed by the hash of the step's probe columns. Bucket entries keep
// ascending delta order, so hashed enumeration matches the linear scan's
// order exactly; candidates still pass the probe check, which settles
// projections that share a hash.
func (p *pipeline) buildDeltaHash(st *planStep) {
	h := make(map[uint64][]int32, len(p.delta))
	arity := len(st.lit.Atom.Terms)
	for i := range p.delta {
		tu := p.delta[i].tuple
		if len(tu) != arity {
			continue
		}
		k := projHash(tu, st.boundCols)
		h[k] = append(h[k], int32(i))
	}
	p.deltaHash = h
	p.hjBuilds++
}

// prevProv is the annotation product of the rows above depth.
func (p *pipeline) prevProv(depth int) provenance.Poly {
	if depth == 0 {
		return provenance.One()
	}
	return p.cur[depth-1].prov
}

// stepProv folds one candidate's annotation into the running product.
func (p *pipeline) stepProv(depth int, f provenance.Poly) provenance.Poly {
	pr := p.prevProv(depth)
	if p.useProv {
		pr = pr.Mul(f)
	}
	return pr
}

// next advances the cursor at depth to its following row, binding slots as
// a side effect; it reports whether a row is available.
func (p *pipeline) next(depth int) (bool, error) {
	st := &p.pln.steps[depth]
	cs := &p.cur[depth]
	if st.unbound {
		// The planner floats filters to where their variables are bound;
		// Validate rejects bodies where they never bind.
		return false, fmt.Errorf("datalog: rule %q: unbound filter literal", p.rule.ID)
	}
	switch st.kind {
	case stepCmp:
		if cs.done {
			return false, nil
		}
		cs.done = true
		p.ticks++
		if !compare(st.op, st.left.value(p.env), st.right.value(p.env)) {
			return false, nil
		}
		cs.prov = p.prevProv(depth)
		return true, nil
	case stepNeg:
		if cs.done {
			return false, nil
		}
		cs.done = true
		p.ticks++
		t := p.tupBuf[:0]
		for _, pt := range st.negTerms {
			t = append(t, pt.value(p.env))
		}
		p.tupBuf = t
		if _, ok := p.db.Rel(st.pred).find(t.Hash(), t); ok {
			return false, nil
		}
		cs.prov = p.prevProv(depth)
		return true, nil
	}
	// The candidate loops below keep their row counter in a register (n)
	// and fold it into the pipeline's counters only on exit — a heap store
	// per candidate costs ~30% on probe-heavy workloads. Mid-loop, the
	// stride mask triggers the cooperative cancellation check.
	arity := len(st.lit.Atom.Terms)
	n := 0
	if st.isDelta {
		if cs.hashed {
			for cs.pos < len(cs.hash) {
				df := &p.delta[cs.hash[cs.pos]]
				cs.pos++
				if n++; n&(pipeCancelStride-1) == 0 {
					if err := p.ctx.Err(); err != nil {
						p.bump(n)
						return false, err
					}
				}
				if !probesMatch(st, df.tuple, p.env) || !applyActions(st, df.tuple, p.env) {
					continue
				}
				cs.prov = p.stepProv(depth, df.prov)
				p.bump(n)
				return true, nil
			}
			p.bump(n)
			return false, nil
		}
		for cs.pos < len(p.delta) {
			df := &p.delta[cs.pos]
			cs.pos++
			if n++; n&(pipeCancelStride-1) == 0 {
				if err := p.ctx.Err(); err != nil {
					p.bump(n)
					return false, err
				}
			}
			if len(df.tuple) != arity || !probesMatch(st, df.tuple, p.env) || !applyActions(st, df.tuple, p.env) {
				continue
			}
			cs.prov = p.stepProv(depth, df.prov)
			p.bump(n)
			return true, nil
		}
		p.bump(n)
		return false, nil
	}
	for cs.slot != noSlot {
		s := cs.slot
		if s == cs.end {
			cs.slot = noSlot
		} else {
			cs.slot = cs.ci.next[s]
		}
		f := cs.rel.fact(s)
		if n++; n&(pipeCancelStride-1) == 0 {
			if err := p.ctx.Err(); err != nil {
				p.bump(n)
				return false, err
			}
		}
		if len(f.Tuple) != arity || !probesMatch(st, f.Tuple, p.env) || !applyActions(st, f.Tuple, p.env) {
			continue
		}
		cs.prov = p.stepProv(depth, f.Prov)
		p.bump(n)
		return true, nil
	}
	p.bump(n)
	return false, nil
}

// bump folds one next() call's examined-row count into the cancellation
// tick and candidate counters.
func (p *pipeline) bump(n int) {
	p.ticks += n
	p.candidates += int64(n)
}

// probesMatch checks a candidate against the step's probe columns: an index
// chain or delta hash bucket holds every projection with the probed hash,
// and an unhashed delta scan holds everything.
func probesMatch(st *planStep, tu schema.Tuple, env []schema.Value) bool {
	for i, c := range st.boundCols {
		if !st.probes[i].value(env).Equal(tu[c]) {
			return false
		}
	}
	return true
}

// applyActions binds and checks a scan step's non-probed columns against
// one candidate tuple.
func applyActions(st *planStep, tu schema.Tuple, env []schema.Value) bool {
	for _, a := range st.actions {
		if a.check {
			if !env[a.slot].Equal(tu[a.col]) {
				return false
			}
		} else {
			env[a.slot] = tu[a.col]
		}
	}
	return true
}

// emitRow instantiates the head over the environment into the reused
// buffer, hashes it, and hands the row to the sink — giving the sink a
// chance to veto it before the tuple is allocated.
func (p *pipeline) emitRow(prov provenance.Poly, sink *mergeSink) error {
	pln := p.pln
	if pln.headErr != nil {
		return pln.headErr
	}
	out := p.headBuf[:0]
	for _, ha := range pln.head {
		if ha.skolem != nil {
			// The term spells fn(k1,k2,...) over the arguments' Value.Key
			// encodings, built in one buffer and converted once.
			b := append(p.keyBuf[:0], ha.skolem.Fn...)
			b = append(b, '(')
			for j, at := range ha.args {
				if j > 0 {
					b = append(b, ',')
				}
				b = at.value(p.env).AppendKeyTo(b)
			}
			p.keyBuf = append(b, ')')
			out = append(out, schema.LabeledNull(string(p.keyBuf)))
			continue
		}
		out = append(out, ha.term.value(p.env))
	}
	p.headBuf = out
	if p.opts.Provenance && !pln.tokProv.IsZero() {
		prov = prov.Mul(pln.tokProv)
	}
	if !p.opts.Provenance {
		prov = provenance.One()
	}
	if p.opts.ChaseSubsumption && out.HasLabeledNull() && subsumedByExisting(p.db.Rel(p.rule.Head.Pred), out) {
		return nil
	}
	h := out.Hash()
	if sink.skip(h, out, prov) {
		p.suppressed++
		return nil
	}
	p.emitted++
	t := make(schema.Tuple, len(out))
	copy(t, out)
	sink.emit(h, t, prov)
	return nil
}

// flushStats folds the pipeline's local counters into the shared stats once
// per firing, keeping atomics off the per-row path.
func (p *pipeline) flushStats() {
	s := p.opts.Stats
	if s == nil {
		return
	}
	s.Probes.Add(p.probes)
	s.PushdownProbes.Add(p.pushProbes)
	s.Candidates.Add(p.candidates)
	s.Emitted.Add(p.emitted)
	s.Suppressed.Add(p.suppressed)
	s.HashJoinBuilds.Add(p.hjBuilds)
}
