package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"orchestra"
)

const (
	recoverCopies = 5 // kill-copies recovered per durable run
	// readerReconcile names the span of the reader's Reconcile, the one
	// reconcile_p50_ms samples.
	readerReconcile = "Reconcile(reader)"
)

// outDir holds scratch databases and the traced run's artifacts: bench/out
// from the repository root (where the driver and run.sh start the program),
// out when started inside bench/.
var outDir = func() string {
	if _, err := os.Stat("bench"); err == nil {
		return filepath.Join("bench", "out")
	}
	return "out"
}()

// runOut is everything one run (timed or traced) measured.
type runOut struct {
	plan *plan
	// samples holds per-operation latencies in ms, keyed by operation.
	samples map[string][]float64
	setupS  []float64
	wallS   float64 // measured phase
	txns    int     // transactions published and reconciled at every peer
	queries int
	// attempted/failed count every SDK call and every verification.
	attempted, failed int
	failures          []string
	allocBytes        uint64
	userBytes         int64 // published tuple payload, measured phase + set-up
	// counts are the reconcile/resolve outcomes observed per peer, set-up
	// included (the generator's expectation covers the same rounds).
	counts  map[string]expectCounts
	digests map[string]string
	// rows counts the rows, over all peers, that have a Skolem-free
	// derivation: they are checked against Recompute and between runs.
	// skolemRows exist only through Skolem representatives, whose choice is
	// not reproducible; they are counted and nothing else.
	rows, skolemRows int
	// durable results.
	recoverS    []float64
	storedBytes int64
	tr          *tracer
	metrics     *orchestra.MetricsSnapshot // delta over the measured phase (traced)
	recover     *orchestra.MetricsSnapshot // registry of the last traced recovery
	// lsmEvents lists the durable writes of a traced durable run's measured
	// phase, in order.
	lsmEvents []lsmEvent
	env       *env
	dir       string
}

// lsmEvent is one durable write the traced run observed, replayed later
// straight into lsm.DB.Apply to price the layer alone.
type lsmEvent struct {
	kind  string // "publish" (archive batch + ride-along checkpoint) | "checkpoint"
	bytes int64  // WAL payload bytes the operation logged
}

func (o *runOut) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// runner drives one open env through rounds.
type runner struct {
	p        *plan
	e        *env
	o        *runOut
	tr       *tracer
	measured bool
}

// call times one SDK call, under a span when tracing.
func (r *runner) call(name string, fn func() error) float64 {
	id := r.tr.start(name, "core")
	t0 := time.Now()
	err := fn()
	ms := msSince(t0)
	r.tr.end(id)
	r.o.attempted++
	if err != nil {
		r.o.fail("%s: %v", name, err)
	}
	return ms
}

// addCounts folds one report into the peer's outcome counts. A Resolve
// re-opens every still-deferred transaction and defers it again, so only
// Reconcile reports count deferrals.
func (r *runner) addCounts(peer string, rep *orchestra.ReconcileReport, resolve bool) {
	if rep == nil {
		return
	}
	c := r.o.counts[peer]
	c.accepted += len(rep.Accepted)
	c.rejected += len(rep.Rejected)
	if !resolve {
		c.deferred += len(rep.Deferred)
	}
	r.o.counts[peer] = c
}

// sample records one latency of the measured phase; set-up rounds run
// through the same code and record nothing.
func (r *runner) sample(name string, ms float64) {
	if r.measured {
		r.o.samples[name] = append(r.o.samples[name], ms)
	}
}

// walBytes reads the LSM WAL byte counter in the measured phase of a traced
// durable run (0 elsewhere).
func (r *runner) walBytes() int64 {
	if r.e.walBytes == nil || !r.measured {
		return 0
	}
	return r.e.walBytes()
}

// round runs one write round and the reads after it.
func (r *runner) round(rp roundPlan) {
	ctx := context.Background()
	o := r.o
	r.tr.beginOp()
	root := r.tr.start("round", "root")
	t0 := time.Now()
	var winners []orchestra.TxnID
	nTx := 0
	for _, b := range rp.bursts {
		peer := r.e.peers[b.peer]
		for _, t := range b.txns {
			var id orchestra.TxnID
			r.call("Commit", func() (err error) { id, err = peer.Commit(t.ups); return })
			if t.resolveWinner {
				winners = append(winners, id)
			}
			for _, u := range t.ups {
				o.userBytes += userBytes(u.New)
			}
			nTx++
		}
	}
	for _, b := range rp.bursts {
		peer := r.e.peers[b.peer]
		w0 := r.walBytes()
		ms := r.call("PublishAll", func() error {
			_, n, err := peer.PublishAll(ctx)
			if err == nil && n != len(b.txns) {
				err = fmt.Errorf("published %d of %d", n, len(b.txns))
			}
			return err
		})
		if w := r.walBytes() - w0; w > 0 {
			o.lsmEvents = append(o.lsmEvents, lsmEvent{kind: "publish", bytes: w})
		}
		r.sample("publish", ms)
	}
	for _, n := range r.p.names {
		peer := r.e.peers[n]
		var rep *orchestra.ReconcileReport
		name := "Reconcile"
		if n == r.p.reader {
			name = readerReconcile
		}
		ms := r.call(name, func() (err error) { rep, err = peer.Reconcile(ctx); return })
		r.addCounts(n, rep, false)
		if n == r.p.reader {
			r.sample("reconcile", ms)
		}
	}
	r.sample("round", msSince(t0))
	if r.measured {
		o.txns += nTx
	}
	r.tr.end(root)

	if len(winners) > 0 {
		r.tr.beginOp()
		root := r.tr.start("resolve", "root")
		arb := r.e.peers[r.p.arbiter]
		for _, w := range winners {
			var rep *orchestra.ReconcileReport
			ms := r.call("Resolve", func() (err error) { rep, err = arb.Resolve(ctx, w); return })
			r.addCounts(r.p.arbiter, rep, true)
			r.sample("resolve", ms)
		}
		r.tr.end(root)
	}
	if rp.checkpoint {
		r.tr.beginOp()
		root := r.tr.start("checkpoint", "root")
		for _, n := range r.p.names {
			if slices.Contains(r.p.publisher, n) {
				continue
			}
			w0 := r.walBytes()
			ms := r.call("Checkpoint", r.e.peers[n].Checkpoint)
			if w := r.walBytes() - w0; w > 0 {
				o.lsmEvents = append(o.lsmEvents, lsmEvent{kind: "checkpoint", bytes: w})
			}
			r.sample("checkpoint", ms)
		}
		r.tr.end(root)
	}
	reader := r.e.peers[r.p.reader]
	for i, q := range rp.queries {
		r.tr.beginOp()
		root := r.tr.start("query", "root")
		ms := r.call("Query", func() error {
			n, err := reader.Query(ctx, q)
			if err == nil && n < q.wantMin {
				err = fmt.Errorf("%s query returned %d answers, want >= %d", q.kind, n, q.wantMin)
			}
			return err
		})
		r.tr.end(root)
		r.sample("query", ms)
		if i == 0 {
			r.sample("query_first", ms)
		} else {
			r.sample("query_steady", ms)
		}
		if r.measured {
			o.queries++
		}
	}
}

// setUp generates the inputs, opens the system, preloads it and warms one
// round — the work setup_s measures. A traced durable run assembles the
// stack itself; everything else goes through the SDK.
func setUp(info *workloadInfo, seed int64, seconds int, tr *tracer, o *runOut) (*plan, *env, string, float64, error) {
	t0 := time.Now()
	p := info.gen(seed, seconds)
	p.info = info
	dir := ""
	if p.durable {
		if err := os.MkdirAll(filepath.Join(outDir, "tmp"), 0o755); err != nil {
			return nil, nil, "", 0, err
		}
		d, err := os.MkdirTemp(filepath.Join(outDir, "tmp"), "db-")
		if err != nil {
			return nil, nil, "", 0, err
		}
		dir = d
	}
	var e *env
	var err error
	if p.durable && tr != nil {
		e, err = openCoreDurable(p, dir, tr)
	} else {
		e, err = openSDK(p, dir, tr)
	}
	if err != nil {
		return nil, nil, dir, 0, err
	}
	r := &runner{p: p, e: e, o: o, tr: nil}
	for _, rp := range p.preload {
		r.round(rp)
	}
	r.round(p.warm)
	return p, e, dir, time.Since(t0).Seconds(), nil
}

// runOnce performs one complete run of a workload: repeated set-up, the
// measured phase, (durable) kill and recovery, and the digest of every
// peer's final instance. The caller decides what to verify it against.
func runOnce(info *workloadInfo, seed int64, seconds int, traced bool, setups int) (*runOut, error) {
	o := &runOut{samples: map[string][]float64{}, counts: map[string]expectCounts{}}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var p *plan
	var e *env
	var dir string
	for i := 0; i < setups; i++ {
		if e != nil {
			// An earlier set-up only existed to be timed.
			if err := e.close(); err != nil {
				return nil, err
			}
			os.RemoveAll(dir)
		}
		// Reset what the discarded set-up accumulated.
		o.counts, o.userBytes, o.attempted, o.failed, o.failures = map[string]expectCounts{}, 0, 0, 0, nil
		var s float64
		var err error
		runtime.GC()
		p, e, dir, s, err = setUp(info, seed, seconds, tr, o)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		o.setupS = append(o.setupS, s)
	}
	o.plan, o.env, o.dir, o.tr = p, e, dir, tr
	if tr != nil {
		tr.spans, tr.stack, tr.op = tr.spans[:0], tr.stack[:0], 0
		tr.origin = time.Now()
		if e.timed != nil {
			e.timed.sinceTxns = 0
		}
	}
	var before *orchestra.MetricsSnapshot
	if e.metrics != nil {
		before = e.metrics()
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r := &runner{p: p, e: e, o: o, tr: tr, measured: true}
	t0 := time.Now()
	for _, rp := range p.rounds {
		r.round(rp)
	}
	o.wallS = time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	o.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	if e.metrics != nil {
		o.metrics = deltaMetrics(e.metrics(), before)
	}
	if p.durable {
		if err := killAndRecover(o); err != nil {
			return nil, err
		}
	}
	o.digests = digestPeers(p, e)
	return o, nil
}

// finish releases the run's system and scratch directory.
func (o *runOut) finish() {
	if o.env != nil {
		if err := o.env.close(); err != nil {
			fmt.Fprintln(os.Stderr, "bench: close:", err)
		}
		o.env = nil
	}
	if o.dir != "" {
		os.RemoveAll(o.dir)
	}
}

// deltaMetrics subtracts counters and histogram count/sum; gauges and the
// evaluator's peak carry the later value.
func deltaMetrics(now, prev *orchestra.MetricsSnapshot) *orchestra.MetricsSnapshot {
	out := &orchestra.MetricsSnapshot{
		Counters:   map[string]int64{},
		Gauges:     now.Gauges,
		Histograms: map[string]orchestra.HistogramSnapshot{},
	}
	for k, v := range now.Counters {
		out.Counters[k] = v - prev.Counters[k]
	}
	for k, v := range now.Histograms {
		pv := prev.Histograms[k]
		v.Count -= pv.Count
		v.Sum -= pv.Sum
		out.Histograms[k] = v
	}
	a, b := now.Eval, prev.Eval
	out.Eval = orchestra.EvalCounters{
		Probes: a.Probes - b.Probes, PushdownProbes: a.PushdownProbes - b.PushdownProbes,
		Candidates: a.Candidates - b.Candidates, Emitted: a.Emitted - b.Emitted,
		Suppressed: a.Suppressed - b.Suppressed, HashJoinBuilds: a.HashJoinBuilds - b.HashJoinBuilds,
		Rounds: a.Rounds - b.Rounds, ParallelRounds: a.ParallelRounds - b.ParallelRounds,
		WorkersUsed: a.WorkersUsed - b.WorkersUsed, PeakLive: a.PeakLive,
	}
	return out
}
