package orchestra_test

// Observability acceptance tests: the durable round-trip must light up the
// WAL-fsync, reconcile-latency, and fixpoint-round histograms; snapshots
// must stay consistent under concurrent publish/reconcile/query (run with
// -race); the debug endpoint must serve well-formed JSON and Prometheus
// text; and a system opened with WithMetrics(false) must report nothing.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"orchestra"
)

// TestMetricsDurableRoundTrip is the acceptance criterion: after a durable
// publish/reconcile round trip, System.Metrics() reports non-zero WAL
// fsync, reconcile-latency, and fixpoint-round histograms.
func TestMetricsDurableRoundTrip(t *testing.T) {
	ctx := context.Background()
	sys, err := orchestra.Open(geneSchema(t), orchestra.WithDurableDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	alice, err := sys.Peer("alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := sys.Peer("bob")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Begin().Insert("Gene", gene("BRCA1", 17)).Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Publish(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	m := sys.Metrics()
	for _, h := range []string{"lsm_wal_fsync_ns", "core_reconcile_ns", "datalog_fixpoint_rounds"} {
		if m.Histograms[h].Count == 0 {
			t.Errorf("histogram %s is empty after a durable round trip; histograms: %v", h, histNames(m))
		}
	}
	for _, c := range []string{
		"core_publish_total", "core_reconcile_total", "core_accepted_txns_total",
		"core_checkpoint_total", "lsm_wal_appends_total", "p2p_publish_batches_total",
	} {
		if m.Counters[c] == 0 {
			t.Errorf("counter %s = 0 after a durable round trip", c)
		}
	}
	if m.Eval.Rounds == 0 || m.Eval.Emitted == 0 {
		t.Errorf("eval counters not folded in: %+v", m.Eval)
	}
	if got, ok := m.Counters["provenance_truncations_total"]; !ok || got != m.Eval.Truncations {
		t.Errorf("provenance_truncations_total = %d (exported %v), want the evaluator's %d", got, ok, m.Eval.Truncations)
	}
	// The published row minted at least one token in the process-wide table.
	if got := m.Gauges["provenance_tokens"]; got < 1 {
		t.Errorf("provenance_tokens = %d after a publish and a reconcile, want ≥ 1", got)
	}
	// The runtime series are sampled into every snapshot: GC CPU is part
	// of the CPU capacity, and the last cycle marked some heap live.
	runtime.GC()
	m2 := sys.Metrics()
	gcNs, cpuNs := m2.Counters["runtime_gc_cpu_ns_total"], m2.Counters["runtime_cpu_ns_total"]
	if cpuNs <= 0 || gcNs <= 0 || gcNs > cpuNs {
		t.Errorf("runtime_gc_cpu_ns_total = %d, runtime_cpu_ns_total = %d: want 0 < gc ≤ total", gcNs, cpuNs)
	}
	if got := m2.Gauges["runtime_heap_live_bytes"]; got <= 0 {
		t.Errorf("runtime_heap_live_bytes = %d after a GC, want > 0", got)
	}
	// Nothing was deleted, so no engine built its deletion index.
	if got, ok := m.Counters["datalog_token_index_builds_total"]; !ok || got != 0 || m.Eval.TokenIndexBuilds != 0 {
		t.Errorf("datalog_token_index_builds_total = %d (exported %v, evaluator %d), want 0 after inserts only", got, ok, m.Eval.TokenIndexBuilds)
	}
	// Reconcile must have traced a parent span with a drain child.
	var reconcileID uint64
	for _, sp := range m.Spans {
		if sp.Name == "core_reconcile" && sp.Peer == "bob" {
			reconcileID = sp.ID
		}
	}
	if reconcileID == 0 {
		t.Fatalf("no core_reconcile span for bob in %d spans", len(m.Spans))
	}
	foundChild := false
	for _, sp := range m.Spans {
		if sp.Name == "exchange_drain" && sp.Parent == reconcileID {
			foundChild = true
		}
	}
	if !foundChild {
		t.Error("reconcile span has no exchange_drain child")
	}
}

func readAll(t *testing.T, res *http.Response) string {
	t.Helper()
	data, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func histNames(m *orchestra.MetricsSnapshot) []string {
	names := make([]string, 0, len(m.Histograms))
	for k := range m.Histograms {
		names = append(names, k)
	}
	return names
}

// TestMetricsQueryStats: query evaluation folds into the shared eval
// counters without the caller installing a Stats struct — the satellite fix
// for EvalStats being reachable only through internal/datalog.
func TestMetricsQueryStats(t *testing.T) {
	ctx := context.Background()
	sys, alice, _ := openGenes(t)
	if _, err := alice.Begin().Insert("Gene", gene("BRCA1", 17)).Commit(); err != nil {
		t.Fatal(err)
	}
	before := sys.Metrics().Eval
	rows, err := alice.Query(ctx, "Gene",
		orchestra.Bind(orchestra.String("BRCA1")), orchestra.Free("chrom")).All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("query returned %d rows, want 1", len(rows))
	}
	after := sys.Metrics().Eval
	if after.Rounds <= before.Rounds {
		t.Errorf("query did not advance eval rounds: %d -> %d", before.Rounds, after.Rounds)
	}
	if sys.Metrics().Counters["core_query_total"] == 0 {
		t.Error("core_query_total not incremented")
	}
}

// TestMetricsConcurrent hammers publish/reconcile/query/snapshot from
// concurrent goroutines; under -race this is the facade-level data-race
// gate, and the final snapshot must balance exactly.
func TestMetricsConcurrent(t *testing.T) {
	ctx := context.Background()
	sys, alice, bob := openGenes(t)
	const writers = 4
	const perW = 10
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				name := fmt.Sprintf("G%d_%d", w, i)
				if _, err := alice.Begin().Insert("Gene", gene(name, int64(i%23+1))).Commit(); err != nil {
					t.Error(err)
					return
				}
				if _, err := alice.Publish(ctx); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := bob.Reconcile(ctx); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			m := sys.Metrics()
			if m.Counters["core_publish_total"] > writers*perW {
				t.Errorf("impossible publish count %d", m.Counters["core_publish_total"])
				return
			}
		}
	}()
	wg.Wait()
	if _, err := bob.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	m := sys.Metrics()
	if got := m.Counters["core_published_txns_total"]; got != writers*perW {
		t.Errorf("core_published_txns_total = %d, want %d", got, writers*perW)
	}
	if got := m.Counters["core_accepted_txns_total"]; got != writers*perW {
		t.Errorf("core_accepted_txns_total = %d, want %d (bob accepts every publish)", got, writers*perW)
	}
	if h := m.Histograms["core_reconcile_ns"]; h.Count != m.Counters["core_reconcile_total"] {
		t.Errorf("reconcile span count %d != reconcile counter %d", h.Count, m.Counters["core_reconcile_total"])
	}
}

// TestDebugEndpoint scrapes both renderings of DebugHandler.
func TestDebugEndpoint(t *testing.T) {
	ctx := context.Background()
	sys, alice, bob := openGenes(t)
	if _, err := alice.Begin().Insert("Gene", gene("BRCA1", 17)).Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Publish(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Query(ctx, "Gene", orchestra.Bind(orchestra.String("BRCA1")), orchestra.Free("chrom")).All(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(sys.DebugHandler())
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/debug/orchestra")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("JSON endpoint content type %q", ct)
	}
	var m orchestra.MetricsSnapshot
	if err := json.NewDecoder(res.Body).Decode(&m); err != nil {
		t.Fatalf("JSON endpoint did not decode: %v", err)
	}
	if m.Counters["core_publish_total"] == 0 || m.Eval.Rounds == 0 || m.Counters["core_query_prepares_total"] != 1 {
		t.Errorf("JSON snapshot missing data: %+v", m.Counters)
	}

	res2, err := srv.Client().Get(srv.URL + "/debug/orchestra/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	body := readAll(t, res2)
	for _, want := range []string{
		"# TYPE orchestra_core_publish_total counter",
		"orchestra_core_reconcile_ns{quantile=\"0.99\"}",
		"orchestra_datalog_rounds_total",
		"orchestra_provenance_tokens",
		"# TYPE orchestra_runtime_gc_cpu_ns_total counter",
		"orchestra_runtime_heap_live_bytes",
		"orchestra_core_query_prepares_total 1",
		"# TYPE orchestra_core_query_replans_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prom scrape missing %q", want)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("malformed prom line %q", line)
		}
	}
}

// TestMetricsDisabled: WithMetrics(false) yields empty (but usable)
// snapshots and a scrape with no series.
func TestMetricsDisabled(t *testing.T) {
	ctx := context.Background()
	sys, alice, bob := openGenes(t, orchestra.WithMetrics(false))
	if _, err := alice.Begin().Insert("Gene", gene("BRCA1", 17)).Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Publish(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	m := sys.Metrics()
	if len(m.Counters) != 0 || len(m.Histograms) != 0 || len(m.Spans) != 0 {
		t.Errorf("disabled system recorded metrics: %+v", m)
	}
	if m.Eval != (orchestra.EvalCounters{}) {
		t.Errorf("disabled system recorded eval counters: %+v", m.Eval)
	}
	srv := httptest.NewServer(sys.DebugHandler())
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL + "/debug/orchestra/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if body := readAll(t, res); strings.TrimSpace(body) != "" {
		t.Errorf("disabled scrape returned series:\n%s", body)
	}
}

// lockedBuffer is a bytes.Buffer safe for the concurrent writes of a
// logger shared by background goroutines.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSlowOpThresholdLogs: with WithSlowOpThreshold every operation slower
// than the threshold logs one warning naming the operation and the peer.
func TestSlowOpThresholdLogs(t *testing.T) {
	var logs lockedBuffer
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&logs, nil)))
	t.Cleanup(func() { slog.SetDefault(prev) })

	_, alice, _ := openGenes(t, orchestra.WithSlowOpThreshold(time.Nanosecond))
	if _, err := alice.Begin().Insert("Gene", gene("BRCA1", 17)).Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Publish(context.Background()); err != nil {
		t.Fatal(err)
	}
	out := logs.String()
	if !strings.Contains(out, "slow operation") || !strings.Contains(out, "peer=alice") {
		t.Fatalf("no slow-operation warning for alice's publish; log:\n%s", out)
	}
}
