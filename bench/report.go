package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricDef declares one metric of the benchmark: BENCHMARK.json lists
// exactly these (a test holds the two together).
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" | "higher"
	bound  float64 // end-to-end only: allowed worsening before a regression
}

// endToEnd are the metrics a user of the system sees; every workload
// reports every one of them from its timed run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"txn_per_s", "1/s", "higher", 0.25},
	{"round_p50_ms", "ms", "lower", 0.25},
	{"reconcile_p50_ms", "ms", "lower", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"alloc_bytes_per_op", "B", "lower", 0.1},
}

// perLayer are the single-layer metrics of the traced run and the staged
// replay. A layer is a package under internal/.
var perLayer = []metricDef{
	{"core.publish_p50_ms", "ms", "lower", 0},
	{"core.publish_self_ms", "ms", "lower", 0},
	{"core.reconcile_self_ms", "ms", "lower", 0},
	{"core.checkpoint_p50_ms", "ms", "lower", 0},
	{"core.checkpoint_ms_per_krow", "ms", "lower", 0},
	{"core.checkpoint_bytes", "B", "lower", 0},
	{"core.checkpoint_rows", "count", "lower", 0},
	{"core.publish_growth_ratio", "ratio", "lower", 0},
	{"core.recover_s", "s", "lower", 0},
	{"core.recover_load_ms", "ms", "lower", 0},
	{"core.recover_replay_txns", "count", "lower", 0},
	{"core.stored_bytes_per_user_byte", "ratio", "lower", 0},
	{"core.query_first_after_write_ms", "ms", "lower", 0},
	{"core.query_steady_ms", "ms", "lower", 0},
	{"core.round_p95_ms", "ms", "lower", 0},
	{"core.query_p95_ms", "ms", "lower", 0},
	{"core.publish_ms_p95", "ms", "lower", 0},
	{"core.reconcile_ms_p95", "ms", "lower", 0},
	{"core.checkpoint_ms_p95", "ms", "lower", 0},
	{"p2p.publish_ms", "ms", "lower", 0},
	{"p2p.since_ms", "ms", "lower", 0},
	{"p2p.published_bytes_per_txn", "B", "lower", 0},
	{"p2p.since_txns", "count", "lower", 0},
	{"p2p.encode_us_per_txn", "us", "lower", 0},
	{"lsm.sync_apply_ms_p50", "ms", "lower", 0},
	{"lsm.sync_apply_ms_p95", "ms", "lower", 0},
	{"lsm.wal_fsyncs", "count", "lower", 0},
	{"lsm.wal_bytes", "B", "lower", 0},
	{"lsm.flushes", "count", "lower", 0},
	{"lsm.compactions", "count", "lower", 0},
	{"lsm.compaction_bytes", "B", "lower", 0},
	{"lsm.write_amp", "ratio", "lower", 0},
	{"lsm.block_reads_per_get", "ratio", "lower", 0},
	{"lsm.bloom_skip_ratio", "ratio", "higher", 0},
	{"lsm.scan_mb_per_s", "MB/s", "higher", 0},
	{"lsm.get_us_p50", "us", "lower", 0},
	{"exchange.applyall_ms_per_txn", "ms", "lower", 0},
	{"exchange.delete_ms_per_txn", "ms", "lower", 0},
	{"exchange.batch_txns_p50", "count", "higher", 0},
	{"exchange.savestate_ms", "ms", "lower", 0},
	{"exchange.loadstate_ms", "ms", "lower", 0},
	{"exchange.state_bytes", "B", "lower", 0},
	{"exchange.recompute_ms", "ms", "lower", 0},
	{"datalog.full_eval_ms", "ms", "lower", 0},
	{"datalog.goal_eval_ms_p50", "ms", "lower", 0},
	{"datalog.goal_vs_full_ratio", "ratio", "lower", 0},
	{"datalog.probes_per_op", "count", "lower", 0},
	{"datalog.candidates_per_emit", "ratio", "lower", 0},
	{"datalog.suppressed_frac", "ratio", "lower", 0},
	{"datalog.pushdown_rate", "ratio", "higher", 0},
	{"datalog.rounds_per_op", "count", "lower", 0},
	{"datalog.parallel_round_frac", "ratio", "higher", 0},
	{"datalog.workers_per_round", "count", "higher", 0},
	{"datalog.hash_join_builds", "count", "lower", 0},
	{"datalog.peak_live", "count", "lower", 0},
	{"provenance.eval_overhead_ratio", "ratio", "lower", 0},
	{"provenance.monomials_per_tuple_p50", "count", "lower", 0},
	{"provenance.monomials_per_tuple_max", "count", "lower", 0},
	{"provenance.bytes_per_row", "B", "lower", 0},
	{"recon.reconcile_us_per_txn", "us", "lower", 0},
	{"recon.accepted", "count", "higher", 0},
	{"recon.rejected", "count", "lower", 0},
	{"recon.deferred", "count", "lower", 0},
	{"recon.resolve_ms", "ms", "lower", 0},
	{"storage.apply_us_per_update", "us", "lower", 0},
	{"storage.rows", "count", "lower", 0},
	{"obs.trace_overhead_frac", "ratio", "lower", 0},
	{"trace.coverage_frac", "ratio", "higher", 0},
}

// measured is one metric value as printed and as emitted in the result line.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a timing (0 for counts and ratios); Note
	// names the percentile actually used when the sample was too small.
	N    int    `json:"-"`
	Note string `json:"-"`
}

type metricSet map[string]measured

func (m metricSet) set(defs []metricDef, name string, v float64, n int, note string) {
	for _, d := range defs {
		if d.name == name {
			m[name] = measured{Value: v, Unit: d.unit, N: n, Note: note}
			return
		}
	}
	panic("bench: metric " + name + " is not declared")
}

func p50(xs []float64) (float64, int) { return median(xs), len(xs) }

// pTail reports xs at want, or at the highest supported percentile below it.
func pTail(xs []float64, want float64) (float64, int, string) {
	v, used, n := tail(xs, want)
	note := ""
	if used != want {
		note = fmt.Sprintf("p%g: too few samples for p%g", used, want)
	}
	return v, n, note
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// primaryOps is the workload's primary operation count.
func (o *runOut) primaryOps() int {
	if o.plan.primaryQueries {
		return o.queries
	}
	return o.txns
}

// endToEndMetrics derives the end-to-end metrics from a timed run.
func endToEndMetrics(o *runOut) metricSet {
	m := metricSet{}
	set := func(name string, v float64, n int, note string) { m.set(endToEnd, name, v, n, note) }
	set("setup_s", median(o.setupS), len(o.setupS), "")
	set("txn_per_s", ratio(float64(o.txns), o.wallS), 0, "")
	v, n := p50(o.samples["round"])
	set("round_p50_ms", v, n, "")
	v, n = p50(o.samples["reconcile"])
	set("reconcile_p50_ms", v, n, "")
	v, n = p50(o.samples["query"])
	set("query_p50_ms", v, n, "")
	set("alloc_bytes_per_op", ratio(float64(o.allocBytes), float64(o.primaryOps())), 0, "")
	return m
}

// budgetRow is one line of the per-layer budget table.
type budgetRow struct {
	Layer  string  `json:"layer"`
	BusyMs float64 `json:"busy_ms"`
	SelfMs float64 `json:"self_ms"`
	Share  float64 `json:"share_of_root"`
	Ops    int     `json:"ops"`
	Source string  `json:"source"`
}

// budget attributes the traced run's root time to layers. Spans give core
// (every SDK call) and p2p (the decorated store) directly. The layers below
// core cannot be seen from outside, so their busy time is the staged
// replay's measurement of the same inputs, scaled by how many peers did that
// work in the run; core's self time is what is left of its spans.
func budget(o *runOut, rp *replayOut) (rows []budgetRow, coverage float64) {
	totals := layerTotals(o.tr.spans)
	get := func(l string) layerTotal {
		if t := totals[l]; t != nil {
			return *t
		}
		return layerTotal{}
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	rootMs, coreBusy, p2pBusy := ms(get("root").BusyNs), ms(get("core").BusyNs), ms(get("p2p").BusyNs)
	peers := float64(len(o.plan.names))
	// Every peer's engine translates every transaction; every peer but its
	// publisher reconciles and applies it. Only the reader answers queries
	// and keeps a query mirror.
	exchangeMs := (rp.applyInsertMs + rp.applyDeleteMs) * peers
	translateMs := math.Min(rp.incrementalMs*peers, exchangeMs) // the evaluator's part of it
	reconMs := rp.reconMs*(peers-1) + rp.resolveMs + rp.reconLocalMs
	storageMs := rp.storageMs*(peers-1) + rp.storageLocalMs
	lsmUnderCore, lsmUnderP2P := 0.0, 0.0
	if o.plan.durable {
		// Each checkpoint, explicit or riding a publish, saves the engine
		// state (which grows from nothing over the run: half its final cost
		// on average), sweeps the previous checkpoint with a range scan and
		// applies one batch; each archive Since is a range scan too; each
		// recovered peer loads its engine state and scans its checkpoint.
		checkpoints := float64(len(o.samples["checkpoint"]) + len(o.samples["publish"]))
		recovered := peers * float64(len(o.recoverS))
		exchangeMs += rp.saveStateMs*checkpoints/2 + rp.loadStateMs*recovered
		lsmUnderCore = rp.lsmEventsMs - rp.lsmArchiveMs + rp.scanCheckpointMs*(checkpoints/2+recovered)
		// What the durable store does itself is the codec; the rest of the
		// time inside it is the LSM's.
		codecMs := rp.encodeMsPerTxn*float64(o.txns) + rp.decodeMsPerTxn*float64(o.sinceTxns())
		lsmUnderP2P = math.Max(p2pBusy-codecMs, 0)
	}
	datalogMs := translateMs + rp.queryMs + rp.mirrorMs
	provMs := rp.queryProvMs
	if rp.fullEvalMs > rp.fullEvalNoMs {
		provMs += translateMs * (1 - rp.fullEvalNoMs/rp.fullEvalMs)
	}
	lsmMs := lsmUnderCore + lsmUnderP2P
	below := p2pBusy + exchangeMs + rp.queryMs + rp.mirrorMs + reconMs + storageMs + lsmUnderCore
	coverage = ratio(below, rootMs)
	row := func(layer string, busy, self float64, ops int, source string) {
		rows = append(rows, budgetRow{layer, busy, self, ratio(self, rootMs), ops, source})
	}
	row("root", rootMs, ms(get("root").SelfNs), get("root").Count, "spans")
	row("core", coreBusy, coreBusy-below, get("core").Count, "spans minus layers below")
	row("p2p", p2pBusy, p2pBusy-lsmUnderP2P, get("p2p").Count, "store decorator minus lsm")
	row("lsm", lsmMs, lsmMs, len(o.lsmEvents), "replay")
	row("exchange", exchangeMs, exchangeMs-translateMs, rp.insertTxns+rp.deleteTxns, "replay x peers")
	row("datalog", datalogMs, datalogMs-provMs, o.queries+rp.insertTxns+rp.deleteTxns, "replay x peers + queries")
	row("provenance", provMs, provMs, 0, "annotation share of datalog")
	row("recon", reconMs, reconMs, rp.reconTxns, "replay x (peers-1) + commit side")
	row("storage", storageMs, storageMs, rp.storageUps, "replay x (peers-1) + commit side")
	return rows, coverage
}

// layerMetrics derives the per-layer metrics from a traced run, its staged
// replay, and the timed run's wall clock.
func layerMetrics(timed, o *runOut, rp *replayOut, coverage float64) metricSet {
	m := metricSet{}
	set := func(name string, v float64, n int, note string) { m.set(perLayer, name, v, n, note) }
	for _, d := range perLayer {
		m[d.name] = measured{Unit: d.unit}
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	inStore := timeUnder(o.tr.spans, "p2p")
	var pubSelf, recSelf, storePub, storeSince []float64
	for _, s := range o.tr.spans {
		switch s.Name {
		case "PublishAll":
			pubSelf = append(pubSelf, ms(s.dur()-inStore[s.ID]))
		case readerReconcile:
			recSelf = append(recSelf, ms(s.dur()-inStore[s.ID]))
		case "store.Publish":
			storePub = append(storePub, ms(s.dur()))
		case "store.Since":
			storeSince = append(storeSince, ms(s.dur()))
		}
	}
	v, n := p50(o.samples["publish"])
	set("core.publish_p50_ms", v, n, "")
	set("core.publish_self_ms", median(pubSelf), len(pubSelf), "")
	// Below the reader's Reconcile sit one drain of the engine, one recon
	// pass and the instance writes; the replay priced each per round.
	rounds := float64(len(o.plan.rounds))
	perRoundBelow := ratio(rp.applyInsertMs+rp.applyDeleteMs+rp.reconMs+rp.storageMs, rounds)
	recSelfMs := median(recSelf) - perRoundBelow
	if recSelfMs < 0 {
		recSelfMs = 0
	}
	set("core.reconcile_self_ms", recSelfMs, len(recSelf), "")

	ck := o.samples["checkpoint"]
	v, n = p50(ck)
	set("core.checkpoint_p50_ms", v, n, "")
	readerRows := 0
	for _, rel := range o.env.peers[o.plan.reader].Relations() {
		rows, _ := o.env.peers[o.plan.reader].Rows(rel.Name)
		readerRows += len(rows)
	}
	if o.plan.durable {
		if len(ck) > 0 {
			set("core.checkpoint_ms_per_krow", ratio(ck[len(ck)-1], float64(readerRows)/1000), 0, "")
		}
		ckBytes := float64(o.metrics.Gauges["checkpoint_bytes"])
		set("core.checkpoint_bytes", ckBytes, 0, "")
		set("core.checkpoint_rows", float64(readerRows), 0, "")
		set("provenance.bytes_per_row", ratio(ckBytes, float64(readerRows)), 0, "")
		set("core.recover_s", median(o.recoverS), len(o.recoverS), "")
		set("core.stored_bytes_per_user_byte", ratio(float64(o.storedBytes), float64(o.userBytes)), 0, "")
		if o.recover != nil {
			h := o.recover.Histograms["recovery_load_ns"]
			set("core.recover_load_ms", h.Mean()/1e6, int(h.Count), "")
			h = o.recover.Histograms["recovery_replay_txns"]
			set("core.recover_replay_txns", h.Mean(), int(h.Count), "")
		}
	}
	pub := o.samples["publish"]
	if k := len(pub) / 10; k > 0 {
		set("core.publish_growth_ratio", ratio(median(pub[len(pub)-k:]), median(pub[:k])), k, "")
	}
	v, n = p50(o.samples["query_first"])
	set("core.query_first_after_write_ms", v, n, "")
	v, n = p50(o.samples["query_steady"])
	set("core.query_steady_ms", v, n, "")
	v, n, note := pTail(o.samples["round"], 95)
	set("core.round_p95_ms", v, n, note)
	v, n, note = pTail(o.samples["query"], 95)
	set("core.query_p95_ms", v, n, note)
	v, n, note = pTail(pub, 95)
	set("core.publish_ms_p95", v, n, note)
	v, n, note = pTail(o.samples["reconcile"], 95)
	set("core.reconcile_ms_p95", v, n, note)
	v, n, note = pTail(ck, 95)
	set("core.checkpoint_ms_p95", v, n, note)

	set("p2p.publish_ms", median(storePub), len(storePub), "")
	set("p2p.since_ms", median(storeSince), len(storeSince), "")
	set("p2p.published_bytes_per_txn", float64(rp.encodedBytesPerTxn), 0, "")
	set("p2p.since_txns", float64(o.sinceTxns()), 0, "")
	set("p2p.encode_us_per_txn", rp.encodeMsPerTxn*1e3, rp.codecTxns, "")

	if o.plan.durable {
		c := o.metrics.Counters
		v, n = p50(rp.syncApplyMs)
		set("lsm.sync_apply_ms_p50", v, n, fmt.Sprintf("batch %d B", rp.medianBatch))
		v, n, note = pTail(rp.syncApplyMs, 95)
		set("lsm.sync_apply_ms_p95", v, n, note)
		set("lsm.wal_fsyncs", float64(o.metrics.Histograms["lsm_wal_fsync_ns"].Count), 0, "")
		set("lsm.wal_bytes", float64(c["lsm_wal_bytes_total"]), 0, "")
		set("lsm.flushes", float64(c["lsm_flush_total"]), 0, "")
		set("lsm.compactions", float64(c["lsm_compaction_total"]), 0, "")
		set("lsm.compaction_bytes", float64(c["lsm_compaction_bytes_total"]), 0, "")
		// Every SSTable byte ever written is either still live or was
		// consumed once as compaction input.
		tableBytes := float64(0)
		if o.env.db != nil {
			tableBytes = float64(o.env.db.Stats().TableBytes)
		}
		written := float64(c["lsm_wal_bytes_total"]) + tableBytes + float64(c["lsm_compaction_bytes_total"])
		set("lsm.write_amp", ratio(written, float64(o.userBytes)), 0, "")
		set("lsm.block_reads_per_get", ratio(float64(c["lsm_block_reads_total"]), float64(c["lsm_get_total"])), 0, "")
		set("lsm.bloom_skip_ratio", ratio(float64(c["lsm_bloom_skips_total"]), float64(c["lsm_bloom_checks_total"])), 0, "")
		set("lsm.scan_mb_per_s", rp.scanMBPerS, 0, "")
		v, n = p50(rp.getUs)
		set("lsm.get_us_p50", v, n, "")
	}

	set("exchange.applyall_ms_per_txn", ratio(rp.applyInsertMs, float64(rp.insertTxns)), rp.insertTxns, "")
	set("exchange.delete_ms_per_txn", ratio(rp.applyDeleteMs, float64(rp.deleteTxns)), rp.deleteTxns, "")
	h := o.metrics.Histograms["exchange_applyall_batch_txns"]
	set("exchange.batch_txns_p50", float64(h.P50), int(h.Count), "")
	set("exchange.savestate_ms", rp.saveStateMs, 1, "")
	set("exchange.loadstate_ms", rp.loadStateMs, 1, "")
	set("exchange.state_bytes", float64(rp.stateBytes), 0, "")
	set("exchange.recompute_ms", rp.recomputeMs, 1, "")

	ev := o.metrics.Eval
	ops := float64(o.primaryOps())
	set("datalog.full_eval_ms", rp.fullEvalMs, 1, "")
	v, n = p50(rp.goalEvalMs)
	set("datalog.goal_eval_ms_p50", v, n, "")
	set("datalog.goal_vs_full_ratio", ratio(median(rp.goalEvalMs), median(rp.goalFullMs)), len(rp.goalFullMs), "")
	set("datalog.probes_per_op", ratio(float64(ev.Probes), ops), 0, "")
	set("datalog.candidates_per_emit", ratio(float64(ev.Candidates), float64(ev.Emitted)), 0, "")
	set("datalog.suppressed_frac", ratio(float64(ev.Suppressed), float64(ev.Candidates)), 0, "")
	set("datalog.pushdown_rate", ev.PushdownRate(), 0, "")
	set("datalog.rounds_per_op", ratio(float64(ev.Rounds), ops), 0, "")
	set("datalog.parallel_round_frac", ratio(float64(ev.ParallelRounds), float64(ev.Rounds)), 0, "")
	set("datalog.workers_per_round", ratio(float64(ev.WorkersUsed), float64(ev.Rounds)), 0, "")
	set("datalog.hash_join_builds", float64(ev.HashJoinBuilds), 0, "")
	set("datalog.peak_live", float64(ev.PeakLive), 0, "")

	set("provenance.eval_overhead_ratio", ratio(rp.fullEvalMs, rp.fullEvalNoMs), 1, "")
	set("provenance.monomials_per_tuple_p50", median(rp.monomials), len(rp.monomials), "")
	if len(rp.monomials) > 0 {
		set("provenance.monomials_per_tuple_max", sorted(rp.monomials)[len(rp.monomials)-1], len(rp.monomials), "")
	}

	set("recon.reconcile_us_per_txn", ratio(rp.reconMs*1e3, float64(rp.reconTxns)), rp.reconTxns, "")
	var acc, rej, def int
	for _, c := range o.counts {
		acc += c.accepted
		rej += c.rejected
		def += c.deferred
	}
	set("recon.accepted", float64(acc), 0, "")
	set("recon.rejected", float64(rej), 0, "")
	set("recon.deferred", float64(def), 0, "")
	v, n = p50(o.samples["resolve"])
	set("recon.resolve_ms", v, n, "")

	set("storage.apply_us_per_update", ratio(rp.storageMs*1e3, float64(rp.storageUps)), rp.storageUps, "")
	set("storage.rows", float64(o.rows), 0, "")

	if timed != nil && timed.wallS > 0 {
		set("obs.trace_overhead_frac", o.wallS/timed.wallS-1, 0, "")
	}
	set("trace.coverage_frac", coverage, 0, "")
	return m
}

// sinceTxns counts the transactions the decorated store handed back.
func (o *runOut) sinceTxns() int {
	if o.env.timed == nil {
		return 0
	}
	return o.env.timed.sinceTxns
}

func printMetrics(w io.Writer, title string, defs []metricDef, m metricSet) {
	fmt.Fprintf(w, "%s\n", title)
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			continue
		}
		extra := ""
		if v.N > 0 {
			extra = fmt.Sprintf("  (n=%d)", v.N)
		}
		if v.Note != "" {
			extra += "  [" + v.Note + "]"
		}
		fmt.Fprintf(w, "  %-38s %14.4f %-6s%s\n", d.name, v.Value, v.Unit, extra)
	}
}

func printBudget(w io.Writer, wl string, rows []budgetRow, coverage float64) {
	fmt.Fprintf(w, "budget table: %s (traced run)\n", wl)
	fmt.Fprintf(w, "  %-11s %12s %12s %8s %9s  %s\n", "layer", "busy ms", "self ms", "share", "ops", "source")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-11s %12.1f %12.1f %7.1f%% %9d  %s\n", r.Layer, r.BusyMs, r.SelfMs, 100*r.Share, r.Ops, r.Source)
	}
	fmt.Fprintf(w, "  coverage (layers below core / root): %.3f\n", coverage)
}

// artifact is what a traced run writes under bench/out/.
type artifact struct {
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	Seconds   int                 `json:"seconds"`
	Digest    string              `json:"input_digest"`
	EndToEnd  map[string]measured `json:"end_to_end,omitempty"`
	PerLayer  map[string]measured `json:"per_layer"`
	Budget    []budgetRow         `json:"budget"`
	Coverage  float64             `json:"coverage"`
	Counters  map[string]int64    `json:"counters"`
	SpanCount int                 `json:"span_count"`
	Spans     []span              `json:"spans"`
}

func writeArtifact(a artifact) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.json", a.Workload, a.Seed))
	data, err := json.Marshal(a)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// resultLine is the driver contract's last line of standard output.
type resultLine struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func digestLine(d map[string]string) string {
	var parts []string
	for _, k := range sortedKeys(d) {
		parts = append(parts, k+"="+d[k])
	}
	return strings.Join(parts, " ")
}
