package datalog

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

// This file is the stratum round executor. A round is a list of jobs (rule
// firings); it runs either sequentially, each emission merged as soon as it
// is derived, or as one parallel fan-out: the jobs probe a frozen database
// concurrently, each into its own buffer, and the coordinator then merges
// the buffers in job order. An adaptive cost gate picks between the two from
// the round's estimated probe work, so tiny deltas run on the plain
// sequential path automatically.

// parallelGrain is the estimated probe work (input facts enumerated at the
// first plan step) one worker share should amortize the round barrier
// over. Rounds estimated below two grains run sequentially under the
// automatic setting; larger rounds get one worker per grain, capped at the
// resolved Parallelism.
const parallelGrain = 1024

// AdaptiveWorkers resolves Options.Parallelism against a round's estimated
// probe work (see parallelGrain): explicit settings bypass the gate
// (positive taken literally, negative forcing sequential), while the
// automatic setting (0) picks min(runtime.GOMAXPROCS(0), est/parallelGrain)
// workers and takes the sequential path when the round is too small for the
// fan-out and the merge barrier to pay.
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
// belongs to that rule's head shard. hash is the tuple's Hash, which the
// pipeline already computed.
type emission struct {
	hash  uint64
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
	absorb func(mergeResult)
}

func (s *mergeSink) skip(h uint64, t schema.Tuple, prov provenance.Poly) bool {
	return storedSubsumes(s.rel, h, t, prov, s.opts)
}

func (s *mergeSink) emit(h uint64, t schema.Tuple, prov provenance.Poly) {
	mr, changed := mergeHashed(s.rel, h, t, prov, s.opts)
	if changed {
		mr.pred = s.pred
		s.absorb(mr)
	}
}

// bufSink is the parallel streaming sink: one per probe-phase job, appending
// emissions (with their hashes) to the job's own buffer. Its skip
// check reads the frozen pre-round relation — safe because probing workers
// only read and merges wait until every worker has joined — and is gated by
// canSkipParallel.
type bufSink struct {
	rel     *Rel
	buf     []emission
	opts    Options
	canSkip bool
}

func (s *bufSink) skip(h uint64, t schema.Tuple, prov provenance.Poly) bool {
	return s.canSkip && storedSubsumes(s.rel, h, t, prov, s.opts)
}

func (s *bufSink) emit(h uint64, t schema.Tuple, prov provenance.Poly) {
	s.buf = append(s.buf, emission{hash: h, tuple: t, prov: prov})
}

// storedSubsumes reports whether rel already stores t (hash h) with an
// annotation that absorbs prov, so merging it could change nothing.
func storedSubsumes(rel *Rel, h uint64, t schema.Tuple, prov provenance.Poly, opts Options) bool {
	s, ok := rel.find(h, t)
	if !ok {
		return false
	}
	return !opts.Provenance || rel.fact(s).Prov.Subsumes(prov)
}

// roundExec runs the rounds of one fixpoint. It owns the sequential path's
// reusable pipeline buffers; only the coordinator goroutine touches them.
type roundExec struct {
	scratch pipeScratch
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

// runRound fires the round's jobs, folds the emitted head facts into their
// shards, and reports each effective change through absorb (in a
// deterministic order, on the coordinator goroutine).
//
// Sequentially (resolved workers <= 1, including every round the adaptive
// gate deems too small) each firing merges eagerly, so a later rule sees
// facts merged by an earlier rule in the same round — the seed engine's
// behavior, preserved exactly. A parallel round fans out once:
//
//  1. Probe: workers-1 fresh goroutines and the coordinator pull job indexes
//     off one atomic counter; each job fires against the frozen database
//     into its own buffer. Relations are only read; the per-relation lock
//     (relIndex.mu) guards lazy index builds.
//  2. Merge: once every worker has joined, the coordinator walks the jobs in
//     order, merging each buffered emission into its head shard and feeding
//     each change to absorb.
//
// Every shard therefore sees its merges in deterministic (job, emission)
// order, and the fixpoint and provenance polynomials are independent of
// goroutine scheduling. Facts a parallel round withholds from its sibling
// jobs are still in the round's delta, so the semi-naive loop derives
// everything the eager schedule would — at worst one round later.
func (re *roundExec) runRound(ctx context.Context, jobs []job, db *DB, opts Options, absorb func(mergeResult)) error {
	if len(jobs) == 0 {
		return nil
	}
	if opts.Stats != nil {
		opts.Stats.Rounds.Add(1)
	}
	est := 0
	for i := range jobs {
		est += jobCost(&jobs[i], db)
	}
	workers := min(AdaptiveWorkers(opts.Parallelism, est), len(jobs))
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
			if err := fireRuleStream(ctx, j.rule, j.pln, db, j.delta, opts, &sink, &re.scratch); err != nil {
				return err
			}
		}
		return nil
	}
	// Probe. Head relations are resolved on the coordinator: workers must
	// not race on the db.rels map, and the sinks' frozen-state skip checks
	// read these extents concurrently (reads only — merges wait for the
	// join).
	canSkip := canSkipParallel(opts)
	sinks := make([]bufSink, len(jobs))
	errs := make([]error, len(jobs))
	for i := range jobs {
		sinks[i] = bufSink{rel: db.Rel(jobs[i].rule.Head.Pred), opts: opts, canSkip: canSkip}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	probe := func() {
		defer wg.Done()
		for {
			i := int(next.Add(1)) - 1
			if i >= len(jobs) {
				return
			}
			if errs[i] = ctx.Err(); errs[i] == nil {
				j := &jobs[i]
				errs[i] = fireRuleStream(ctx, j.rule, j.pln, db, j.delta, opts, &sinks[i], nil)
			}
		}
	}
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go probe()
	}
	probe()
	wg.Wait()
	live := 0
	for i, err := range errs {
		if err != nil {
			return err
		}
		live += len(sinks[i].buf)
	}
	if opts.Stats != nil {
		atomicMax(&opts.Stats.PeakLive, int64(live))
	}
	// Merge, in job order. The emit-time skip saw only the frozen pre-round
	// database, so the chase redundancy check is re-run against the merged
	// state: a subsumer merged earlier this round would otherwise be missed.
	for i := range jobs {
		buf := sinks[i].buf
		if len(buf) == 0 {
			continue
		}
		pred := jobs[i].rule.Head.Pred
		rel := db.MutableRel(pred)
		for k := range buf {
			e := &buf[k]
			if opts.ChaseSubsumption && e.tuple.HasLabeledNull() && subsumedByExisting(rel, e.tuple) {
				continue
			}
			if mr, changed := mergeHashed(rel, e.hash, e.tuple, e.prov, opts); changed {
				mr.pred = pred
				absorb(mr)
			}
		}
	}
	return nil
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
