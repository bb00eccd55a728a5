package datalog

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

// This file is the parallel stratum executor: the machinery that fires one
// round's jobs over a frozen database, folds the buffered head facts into
// their relations shard by shard, and reports changes deterministically.
//
// Three costs dominated the old per-round implementation and made
// parallelism a net loss on small machines (a stratum of independent joins
// ran ~40% slower at workers=2/4/8 than at workers=1 on one core):
//
//   - one goroutine per job per round, re-spawned every round of the
//     fixpoint;
//   - per-round allocation of every emission buffer, group map, and result
//     slice, discarded at the round barrier;
//   - a serial per-emission regrouping pass on the coordinator between the
//     probe and merge barriers.
//
// The executor replaces all three: a worker pool spawned once per fixpoint
// (coordinator participates, so sequential rounds cost nothing), an arena of
// buffers reused across rounds (and across consecutive incremental
// fixpoints), and grouping by job — every job is one rule, so all its
// emissions share the rule's head shard and whole buffers are handed to the
// merge phase without copying. An adaptive cost gate sizes the worker count
// from the round's estimated probe work, so tiny deltas run on the plain
// sequential path automatically.

// parallelGrain is the estimated probe work (input facts enumerated at the
// first plan step) one worker share should amortize the round barriers
// over. Rounds estimated below two grains run sequentially under the
// automatic setting; larger rounds get one worker per grain, capped at the
// resolved Parallelism.
const parallelGrain = 1024

// chunkMin is the smallest delta slice worth splitting into concurrent
// chunks when a round has fewer jobs than workers.
const chunkMin = 256

// AdaptiveWorkers resolves Options.Parallelism against a round's estimated
// probe work (see parallelGrain): explicit settings bypass the gate
// (positive taken literally, negative forcing sequential), while the
// automatic setting (0) picks min(runtime.NumCPU(), est/parallelGrain)
// workers and degrades to the sequential path — never below it — when the
// round is too small for the snapshot and merge barriers to pay.
func AdaptiveWorkers(parallelism, est int) int {
	w := EffectiveParallelism(parallelism)
	if parallelism != 0 || w <= 1 {
		return w
	}
	if est < 2*parallelGrain {
		return 1
	}
	if g := est / parallelGrain; g < w {
		return g
	}
	return w
}

// emission is one buffered head fact produced by a parallel firing. The
// head predicate is implicit: a job fires one rule, so a whole buffer
// belongs to that rule's head shard. key is the tuple's storage key, which
// the pipeline already encoded.
type emission struct {
	key   string
	tuple schema.Tuple
	prov  provenance.Poly
}

// canSkipParallel reports whether a parallel probe phase may suppress an
// emission because the frozen pre-round fact already subsumes it. Stored
// annotations only grow monotonically when no truncation is in play
// (provenance.MergeWitness's cut keeps the lowest-degree monomials, so a
// later merge can drop exactly the monomials that justified the skip).
func canSkipParallel(opts Options) bool {
	return !opts.Provenance || opts.MaxMonomials == 0
}

// mergeSink is the sequential streaming sink: every emitted head fact is
// merged into the live relation immediately, so a later rule of the same
// round sees facts merged by an earlier one. Its skip check consults the
// live relation, so it is exact at every bound.
type mergeSink struct {
	rel    *Rel
	pred   string
	opts   Options
	keep   bool // head pred can seed further rounds (need filter)
	absorb func(mergeResult)
}

func (s *mergeSink) skip(key []byte, prov provenance.Poly) bool {
	f := s.rel.facts[string(key)]
	if f == nil {
		return false
	}
	if !s.opts.Provenance {
		return true
	}
	return f.Prov.Subsumes(prov)
}

func (s *mergeSink) emit(key []byte, t schema.Tuple, prov provenance.Poly) {
	mr, changed := mergeKeyed(s.rel, string(key), t, prov, s.opts)
	if changed && s.keep {
		mr.pred = s.pred
		s.absorb(mr)
	}
}

// bufSink is the parallel streaming sink: one per probe-phase job, appending
// emissions (with their pre-encoded keys) to the job's arena buffer. Its
// skip check reads the frozen pre-round relation — safe because phase-1
// workers only read and merges happen after the phase barrier — and is
// gated by canSkipParallel.
type bufSink struct {
	rel     *Rel
	buf     []emission
	opts    Options
	canSkip bool
}

func (s *bufSink) skip(key []byte, prov provenance.Poly) bool {
	if !s.canSkip {
		return false
	}
	f := s.rel.facts[string(key)]
	if f == nil {
		return false
	}
	if !s.opts.Provenance {
		return true
	}
	return f.Prov.Subsumes(prov)
}

func (s *bufSink) emit(key []byte, t schema.Tuple, prov provenance.Poly) {
	s.buf = append(s.buf, emission{key: string(key), tuple: t, prov: prov})
}

// predGroup collects, per head shard, the emission buffers of the jobs that
// derived into it this round, in job order.
type predGroup struct {
	pred    string
	rel     *Rel
	bufs    [][]emission
	n       int // total emissions across bufs
	results []mergeResult
}

// roundArena holds the buffers a round needs, reused across rounds of a
// fixpoint — and, when owned by an Incremental, across consecutive
// fixpoints — so steady-state rounds allocate nothing but the facts they
// derive. Buffers are cleared (not just truncated) after each round so the
// arena never pins the previous round's tuples or annotations.
type roundArena struct {
	buffers [][]emission
	errs    []error
	groups  map[string]*predGroup
	order   []*predGroup
	free    []*predGroup
	jobs    []job // chunk-partitioned job list, when partitioning applies
}

// poolTask is one round phase dispatched on the worker pool: fn applied to
// every index in [0, n), pulled off a shared counter so long and short jobs
// balance across workers.
type poolTask struct {
	n    int
	fn   func(int)
	next atomic.Int64
	wg   sync.WaitGroup
}

func (t *poolTask) run() {
	for {
		i := int(t.next.Add(1)) - 1
		if i >= t.n {
			return
		}
		t.fn(i)
	}
}

// workerPool is a fixed set of helper goroutines, spawned once per fixpoint
// and reused by every parallel phase of every round. The coordinator always
// participates in a dispatch, so a pool of w-1 helpers yields w workers and
// a sequential fixpoint never spawns at all.
type workerPool struct {
	tasks chan *poolTask
	size  int
}

func newWorkerPool(helpers int) *workerPool {
	p := &workerPool{tasks: make(chan *poolTask), size: helpers}
	for i := 0; i < helpers; i++ {
		go func() {
			for t := range p.tasks {
				t.run()
				t.wg.Done()
			}
		}()
	}
	return p
}

// dispatch runs fn(0..n-1) on the coordinator plus up to helpers pool
// workers, returning when every index has been processed.
func (p *workerPool) dispatch(n, helpers int, fn func(int)) {
	if helpers > n-1 {
		helpers = n - 1
	}
	if helpers > p.size {
		helpers = p.size
	}
	t := &poolTask{n: n, fn: fn}
	t.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		p.tasks <- t
	}
	t.run()
	t.wg.Wait()
}

func (p *workerPool) close() { close(p.tasks) }

// roundExec drives the rounds of one fixpoint: it owns the (lazily started)
// worker pool and borrows an arena from the caller, which may outlive it.
type roundExec struct {
	max   int  // resolved worker cap (EffectiveParallelism)
	auto  bool // Parallelism == 0: size workers from round cost
	arena *roundArena
	pool  *workerPool
	// scratch holds the sequential path's reusable pipeline buffers; only
	// the coordinator goroutine touches it.
	scratch pipeScratch
}

// newRoundExec prepares an executor for one fixpoint. arena may be nil (a
// private arena is created) or shared by the caller across fixpoints.
// Callers must close() the executor when the fixpoint ends; the arena
// survives it.
func newRoundExec(opts Options, arena *roundArena) *roundExec {
	if arena == nil {
		arena = &roundArena{}
	}
	return &roundExec{
		max:   EffectiveParallelism(opts.Parallelism),
		auto:  opts.Parallelism == 0,
		arena: arena,
	}
}

// close stops the worker pool, if one was started. The arena is left intact
// for the next fixpoint.
func (re *roundExec) close() {
	if re.pool != nil {
		re.pool.close()
		re.pool = nil
	}
}

// jobCost estimates a job's probe work: the number of input facts its first
// plan step enumerates (the delta slice for semi-naive jobs, the scanned
// extent for naive ones). It is a scheduling heuristic, not a cardinality
// estimate — joins can blow past it — but it separates "a handful of delta
// tuples" from "re-probe the corpus" reliably, which is all the cost gate
// needs.
func jobCost(j *job, db *DB) int {
	if j.delta != nil {
		return len(j.delta)
	}
	if len(j.pln.steps) > 0 {
		if st := &j.pln.steps[0]; st.kind == stepScan {
			return db.Rel(st.pred).Len()
		}
	}
	return 1
}

// partitionJobs splits large delta jobs into chunks when the round has
// fewer schedulable jobs than workers, so one dominant rule no longer
// serializes the round. Chunks of one job stay adjacent, preserving the
// deterministic (job, emission) merge order; annotation folding is
// order-insensitive (canonical witness-set union), so splitting never
// changes results. The returned slice aliases the arena and is valid until
// the next partitionJobs call on the same executor.
func partitionJobs(ar *roundArena, jobs []job, workers int) []job {
	if workers <= 1 || len(jobs) >= 2*workers {
		return jobs
	}
	splittable := false
	for i := range jobs {
		if len(jobs[i].delta) >= 2*chunkMin {
			splittable = true
			break
		}
	}
	if !splittable {
		return jobs
	}
	// Aim for ~2 chunks per worker in total so the shared-counter schedule
	// can balance uneven chunks.
	perJob := (2*workers + len(jobs) - 1) / len(jobs)
	out := ar.jobs[:0]
	for i := range jobs {
		j := jobs[i]
		if len(j.delta) < 2*chunkMin || perJob <= 1 {
			out = append(out, j)
			continue
		}
		chunks := len(j.delta) / chunkMin
		if chunks > perJob {
			chunks = perJob
		}
		size := (len(j.delta) + chunks - 1) / chunks
		for start := 0; start < len(j.delta); start += size {
			end := start + size
			if end > len(j.delta) {
				end = len(j.delta)
			}
			cj := j
			cj.delta = j.delta[start:end]
			out = append(out, cj)
		}
	}
	ar.jobs = out
	return out
}

// runRound fires the round's jobs, folds the emitted head facts into their
// shards, and reports each effective change through absorb (in a
// deterministic order, on the coordinator goroutine).
//
// Sequentially (resolved workers <= 1, including every round the adaptive
// gate deems too small) each firing merges eagerly, so a later rule sees
// facts merged by an earlier rule in the same round — the seed engine's
// behavior, preserved exactly. Parallel rounds run in three phases:
//
//  1. Probe: jobs enumerate joins against a frozen database concurrently on
//     the fixpoint's worker pool, buffering their emissions in the arena.
//     Relations are only read; the per-relation lock (relIndex.mu) guards
//     lazy index builds.
//  2. Merge: each job's buffer is handed whole to its rule's head shard
//     (predGroup), and the shards merge concurrently on the same pool —
//     one task per shard, so every shard sees its merges in deterministic
//     (job, emission) order and no two workers touch the same Rel.
//  3. Absorb: the coordinator walks the shards in first-appearance order
//     and feeds each change to absorb, which does the (shared, unlocked)
//     delta and change-log bookkeeping.
//
// The resulting fixpoint and provenance polynomials are therefore
// independent of goroutine scheduling. Facts a parallel round withholds
// from its sibling jobs are still in the round's delta, so the semi-naive
// loop derives everything the eager schedule would — at worst one round
// later.
//
// need, when non-nil, names the predicates whose changes can seed further
// rounds (they appear positively in some body of the stratum); changes to
// any other head predicate are merged but not reported to absorb, so dead
// delta maps are never built. nil keeps every change (incremental
// evaluation must observe all of them for its change log).
func (re *roundExec) runRound(ctx context.Context, jobs []job, db *DB, opts Options, need map[string]bool, absorb func(mergeResult)) error {
	if len(jobs) == 0 {
		return nil
	}
	if opts.Stats != nil {
		opts.Stats.Rounds.Add(1)
	}
	keep := func(pred string) bool { return need == nil || need[pred] }
	est := 0
	for i := range jobs {
		est += jobCost(&jobs[i], db)
	}
	workers := re.max
	if re.auto {
		workers = AdaptiveWorkers(0, est)
		if workers > re.max {
			workers = re.max
		}
	}
	if workers > 1 {
		jobs = partitionJobs(re.arena, jobs, workers)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if opts.Stats != nil {
		opts.Stats.WorkersUsed.Add(int64(workers))
		if workers > 1 {
			opts.Stats.ParallelRounds.Add(1)
		}
	}
	if workers <= 1 {
		sink := mergeSink{opts: opts, absorb: absorb}
		for i := range jobs {
			if err := ctx.Err(); err != nil {
				return err
			}
			j := &jobs[i]
			sink.pred = j.rule.Head.Pred
			sink.rel = db.MutableRel(sink.pred)
			sink.keep = keep(sink.pred)
			if err := fireRuleStream(ctx, j.rule, j.pln, db, j.delta, opts, &sink, &re.scratch); err != nil {
				return err
			}
		}
		return nil
	}
	if re.pool == nil {
		re.pool = newWorkerPool(re.max - 1)
	}
	ar := re.arena
	for len(ar.buffers) < len(jobs) {
		ar.buffers = append(ar.buffers, nil)
		ar.errs = append(ar.errs, nil)
	}
	// Phase 1: probe. Head relations are resolved on the coordinator: workers
	// must not race on the db.rels map, and the sinks' frozen-state skip
	// checks read these extents concurrently (reads only — merges wait for
	// the phase barrier).
	canSkip := canSkipParallel(opts)
	rels := make([]*Rel, len(jobs))
	for i := range jobs {
		rels[i] = db.Rel(jobs[i].rule.Head.Pred)
	}
	re.pool.dispatch(len(jobs), workers-1, func(i int) {
		if err := ctx.Err(); err != nil {
			ar.errs[i] = err
			return
		}
		j := &jobs[i]
		sink := bufSink{rel: rels[i], buf: ar.buffers[i], opts: opts, canSkip: canSkip}
		ar.errs[i] = fireRuleStream(ctx, j.rule, j.pln, db, j.delta, opts, &sink, nil)
		ar.buffers[i] = sink.buf
	})
	for _, err := range ar.errs[:len(jobs)] {
		if err != nil {
			ar.reset(len(jobs))
			return err
		}
	}
	if opts.Stats != nil {
		live := int64(0)
		for i := range jobs {
			live += int64(len(ar.buffers[i]))
		}
		atomicMax(&opts.Stats.PeakLive, live)
	}
	// Phase 2: hand each job's buffer to its head shard and merge the
	// shards concurrently. The mutable (COW-cloned if snapshot-shared)
	// extents are resolved on the coordinator before the merge tasks start:
	// a clone swaps the db.rels map entry, which must not race with sibling
	// shards.
	if ar.groups == nil {
		ar.groups = map[string]*predGroup{}
	}
	for i := range jobs {
		if len(ar.buffers[i]) == 0 {
			continue
		}
		pred := jobs[i].rule.Head.Pred
		g := ar.groups[pred]
		if g == nil {
			if n := len(ar.free); n > 0 {
				g = ar.free[n-1]
				ar.free = ar.free[:n-1]
			} else {
				g = &predGroup{}
			}
			g.pred = pred
			g.rel = db.MutableRel(pred)
			ar.groups[pred] = g
			ar.order = append(ar.order, g)
		}
		g.bufs = append(g.bufs, ar.buffers[i])
		g.n += len(ar.buffers[i])
	}
	mergeGroup := func(g *predGroup) {
		keepPred := keep(g.pred)
		g.rel.reserve(g.n)
		for _, buf := range g.bufs {
			for i := range buf {
				e := &buf[i]
				// Re-run the chase redundancy check against the merged
				// state: the emit-time check saw only the frozen pre-round
				// database, so a subsumer merged earlier this round (always
				// into this same shard) would be missed.
				if opts.ChaseSubsumption && e.tuple.HasLabeledNull() && subsumedByExisting(g.rel, e.tuple) {
					continue
				}
				mr, changed := mergeKeyed(g.rel, e.key, e.tuple, e.prov, opts)
				if changed && keepPred {
					mr.pred = g.pred
					g.results = append(g.results, mr)
				}
			}
		}
	}
	if len(ar.order) == 1 {
		mergeGroup(ar.order[0])
	} else if len(ar.order) > 1 {
		re.pool.dispatch(len(ar.order), workers-1, func(i int) {
			mergeGroup(ar.order[i])
		})
	}
	// Phase 3: absorb on the coordinator, in deterministic shard order.
	for _, g := range ar.order {
		for i := range g.results {
			absorb(g.results[i])
		}
	}
	ar.reset(len(jobs))
	return nil
}

// reset clears the arena's per-round state, keeping capacity but dropping
// every reference so tuples and annotations from this round are not pinned
// into the next.
func (ar *roundArena) reset(njobs int) {
	for i := 0; i < njobs && i < len(ar.buffers); i++ {
		b := ar.buffers[i]
		clear(b)
		ar.buffers[i] = b[:0]
		ar.errs[i] = nil
	}
	for _, g := range ar.order {
		delete(ar.groups, g.pred)
		clear(g.results)
		clear(g.bufs)
		*g = predGroup{results: g.results[:0], bufs: g.bufs[:0]}
		ar.free = append(ar.free, g)
	}
	ar.order = ar.order[:0]
	clear(ar.jobs)
	ar.jobs = ar.jobs[:0]
}

// deltaList flattens one predicate's delta map into the arena-free slice
// form jobs consume: slices are cheaper to scan than maps, chunkable by
// subslicing, and give every probe of the same delta a consistent order
// within the round.
// deltaList flattens a round's pending delta in storage-key order, so the
// enumeration order of every downstream join — and with it the change log
// and the chunk boundaries of partitionJobs — is identical across runs
// instead of following map iteration order.
func deltaList(m map[string]deltaFact) []deltaFact {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]deltaFact, 0, len(m))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}
