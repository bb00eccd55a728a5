package orchestra

import (
	"encoding/json"
	"net/http"
	"runtime/metrics"

	"orchestra/internal/datalog"
	"orchestra/internal/obs"
	"orchestra/internal/provenance"
)

// Observability surface of the SDK. The system owns one metrics registry
// (enabled by default; WithMetrics(false) turns it off) that every layer
// records into: the LSM tier (WAL fsync latency, flushes, compactions,
// bloom-filter hit rate), the published archive (batch sizes and bytes), the
// exchange layer (transactions per reconciliation, per-transaction drain
// latency), the datalog evaluator (via the shared
// EvalStats, folded into every snapshot), and the core operations
// (publish/reconcile/checkpoint/query spans with parent/child timing).
//
// Three ways to read it: System.Metrics returns a point-in-time
// MetricsSnapshot for programmatic use; System.DebugHandler serves the same
// snapshot as JSON and Prometheus text over HTTP (cmd/orchestra mounts it,
// with net/http/pprof, under -metrics-addr); and the repo benchmark
// (bench/) derives its per-layer metrics from snapshot deltas.

// HistogramSnapshot is a point-in-time view of one latency/size histogram:
// count, sum, min/max, p50/p95/p99, and the non-empty log2 buckets.
// Quantiles report bucket upper bounds (powers of two) — exact when the
// observed values are powers of two, otherwise at most a 2x overestimate.
type HistogramSnapshot = obs.HistogramSnapshot

// SpanRecord is one completed traced operation: name, optional peer label,
// start time, duration, and parent linkage for nested spans (a reconcile's
// per-window drains link to their reconcile).
type SpanRecord = obs.SpanRecord

// EvalCounters is the datalog evaluator's cumulative counters, folded out of
// the engine-shared EvalStats so callers no longer reach into
// internal/datalog for them. All counts accumulate over the system's
// lifetime, across every peer's reconciliations and queries.
type EvalCounters struct {
	// Probes counts index probes; PushdownProbes the subset whose key
	// carried at least one pushed-down filter column.
	Probes         int64 `json:"probes"`
	PushdownProbes int64 `json:"pushdown_probes"`
	// Candidates counts join results reaching head unification; Emitted the
	// tuples actually derived; Suppressed the emissions vetoed by the
	// pre-merge subsumption check.
	Candidates int64 `json:"candidates"`
	Emitted    int64 `json:"emitted"`
	Suppressed int64 `json:"suppressed"`
	// HashJoinBuilds counts transient hash tables built over delta extents.
	HashJoinBuilds int64 `json:"hash_join_builds"`
	// Rounds counts fixpoint rounds.
	Rounds int64 `json:"rounds"`
	// ParallelRounds, WorkersUsed and PeakLive are always zero and left out
	// of the JSON: every fixpoint round runs sequentially and buffers
	// nothing. They are kept only because the repo benchmark (bench/) reads
	// them.
	ParallelRounds int64 `json:"-"`
	WorkersUsed    int64 `json:"-"`
	PeakLive       int64 `json:"-"`
	// Truncations counts merges whose witness-set bound (WithMaxMonomials)
	// dropped at least one derivation.
	Truncations int64 `json:"truncations"`
	// TokenIndexBuilds counts scans that built a translation engine's
	// deletion index, one at each engine's first deletion — so a slow first
	// deletion, e.g. the first after recovery, shows what it paid for.
	TokenIndexBuilds int64 `json:"token_index_builds"`
}

// PushdownRate returns the fraction of probes that carried a pushed-down
// filter column (0 when no probes ran).
func (e EvalCounters) PushdownRate() float64 {
	if e.Probes == 0 {
		return 0
	}
	return float64(e.PushdownProbes) / float64(e.Probes)
}

// MetricsSnapshot is one consistent-enough view of the system's metrics:
// counters and gauges read atomically per metric, histograms per bucket.
// Concurrent operations may land between reads of different metrics, but
// every individual series is a true point-in-time value, and deltas between
// two snapshots of the same system are exact.
type MetricsSnapshot struct {
	// Counters holds every named monotonic counter (lsm_*, core_*, p2p_*,
	// datalog_* series; see DESIGN.md §12 for the inventory).
	Counters map[string]int64 `json:"counters"`
	// Gauges holds instantaneous values, e.g. recon_deferred_txns.
	Gauges map[string]int64 `json:"gauges"`
	// Histograms holds latency and size distributions, e.g. lsm_wal_fsync_ns
	// and the <span>_ns series fed by operation tracing.
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	// Spans lists the most recent completed operation spans, oldest first.
	Spans []SpanRecord `json:"spans,omitempty"`
	// Eval is the datalog evaluator's counter block.
	Eval EvalCounters `json:"eval"`
}

// evalCounters reads the shared EvalStats (zero value when metrics are off).
func (s *System) evalCounters() EvalCounters {
	st := s.stats
	if st == nil {
		return EvalCounters{}
	}
	return EvalCounters{
		Probes:           st.Probes.Load(),
		PushdownProbes:   st.PushdownProbes.Load(),
		Candidates:       st.Candidates.Load(),
		Emitted:          st.Emitted.Load(),
		Suppressed:       st.Suppressed.Load(),
		HashJoinBuilds:   st.HashJoinBuilds.Load(),
		Rounds:           st.Rounds.Load(),
		Truncations:      st.Truncations.Load(),
		TokenIndexBuilds: st.TokenIndexBuilds.Load(),
	}
}

// obsSnapshot captures the registry and folds the evaluator counters into
// the counter map (datalog_* names) and the token table's size into the
// gauges, so the JSON and Prometheus renderings carry them without a side
// channel.
func (s *System) obsSnapshot() (*obs.Snapshot, EvalCounters) {
	snap := s.reg.Snapshot()
	ev := s.evalCounters()
	if s.stats != nil {
		snap.Counters["datalog_probes_total"] = ev.Probes
		snap.Counters["datalog_pushdown_probes_total"] = ev.PushdownProbes
		snap.Counters["datalog_candidates_total"] = ev.Candidates
		snap.Counters["datalog_emitted_total"] = ev.Emitted
		snap.Counters["datalog_suppressed_total"] = ev.Suppressed
		snap.Counters["datalog_hash_join_builds_total"] = ev.HashJoinBuilds
		snap.Counters["datalog_rounds_total"] = ev.Rounds
		snap.Counters["provenance_truncations_total"] = ev.Truncations
		snap.Counters["datalog_token_index_builds_total"] = ev.TokenIndexBuilds
		snap.Gauges["provenance_tokens"] = int64(provenance.NumTokens())
		rt := readRuntimeSample()
		snap.Counters["runtime_gc_cpu_ns_total"] = rt.gcCPUNs
		snap.Counters["runtime_cpu_ns_total"] = rt.cpuNs
		snap.Gauges["runtime_heap_live_bytes"] = rt.heapLiveBytes
	}
	return snap, ev
}

// runtimeSample is the Go runtime's view of the collector's cost: its
// estimate of CPU time spent in GC, the CPU capacity (GOMAXPROCS × wall
// time) the process had, and the heap the last GC cycle marked live. The
// ratio of two snapshots' CPU deltas is the collector's share of that
// interval.
type runtimeSample struct {
	gcCPUNs, cpuNs, heapLiveBytes int64
}

// runtimeMetricNames are the runtime/metrics series readRuntimeSample
// reads, in runtimeSample's field order.
var runtimeMetricNames = [...]string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/live:bytes",
}

// readRuntimeSample reads runtimeMetricNames; a series this Go release does
// not support reads as 0.
func readRuntimeSample() runtimeSample {
	var ss [len(runtimeMetricNames)]metrics.Sample
	for i, name := range runtimeMetricNames {
		ss[i].Name = name
	}
	metrics.Read(ss[:])
	val := func(s metrics.Sample) int64 {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			return int64(s.Value.Float64() * 1e9) // seconds to nanoseconds
		case metrics.KindUint64:
			return int64(s.Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPUNs: val(ss[0]), cpuNs: val(ss[1]), heapLiveBytes: val(ss[2])}
}

// Metrics returns a snapshot of every metric the system has recorded.
// With WithMetrics(false) the snapshot is empty but non-nil, so callers can
// read it unconditionally.
func (s *System) Metrics() *MetricsSnapshot {
	snap, ev := s.obsSnapshot()
	return &MetricsSnapshot{
		Counters:   snap.Counters,
		Gauges:     snap.Gauges,
		Histograms: snap.Histograms,
		Spans:      snap.Spans,
		Eval:       ev,
	}
}

// DebugHandler returns the system's live introspection endpoint:
//
//	GET /debug/orchestra          the MetricsSnapshot as JSON
//	GET /debug/orchestra/metrics  Prometheus text exposition format
//
// The handler is stdlib-only and safe for concurrent use; mount it on any
// mux (cmd/orchestra node -metrics-addr serves it alongside net/http/pprof).
func (s *System) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/orchestra", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.Metrics())
	})
	mux.HandleFunc("/debug/orchestra/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		snap, _ := s.obsSnapshot()
		obs.WriteProm(w, snap)
	})
	return mux
}

// newSystemObservability builds the registry and shared evaluator stats for
// an Open call (nil/nil when metrics are disabled).
func newSystemObservability(enabled bool) (*obs.Registry, *datalog.EvalStats) {
	if !enabled {
		return nil, nil
	}
	return obs.NewRegistry(), &datalog.EvalStats{}
}
