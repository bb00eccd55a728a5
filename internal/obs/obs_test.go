package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestHistogramPercentilesExact feeds a histogram values that are exact
// bucket bounds (powers of two) and requires the percentiles to be exact:
// log-bucket quantiles report the bucket's upper bound, which IS the value
// when every observation sits on a bound.
func TestHistogramPercentilesExact(t *testing.T) {
	h := &Histogram{}
	// 100 observations: 50x 64, 45x 1024, 4x 4096, 1x 65536.
	for i := 0; i < 50; i++ {
		h.Observe(64)
	}
	for i := 0; i < 45; i++ {
		h.Observe(1024)
	}
	for i := 0; i < 4; i++ {
		h.Observe(4096)
	}
	h.Observe(65536)
	if got := h.count.Load(); got != 100 {
		t.Fatalf("count = %d, want 100", got)
	}
	cases := []struct {
		q    float64
		want int64
	}{
		{0.50, 64}, {0.51, 1024}, {0.95, 1024}, {0.96, 4096}, {0.99, 4096}, {1.0, 65536},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	s := h.snapshot()
	if s.Min != 64 || s.Max != 65536 {
		t.Errorf("min/max = %d/%d, want 64/65536", s.Min, s.Max)
	}
	wantSum := int64(50*64 + 45*1024 + 4*4096 + 65536)
	if s.Sum != wantSum {
		t.Errorf("sum = %d, want %d", s.Sum, wantSum)
	}
	if s.P50 != 64 || s.P95 != 1024 || s.P99 != 4096 {
		t.Errorf("p50/p95/p99 = %d/%d/%d, want 64/1024/4096", s.P50, s.P95, s.P99)
	}
}

// TestHistogramSingleValue: every percentile of a constant stream is that
// constant (when it is a bucket bound).
func TestHistogramSingleValue(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < 7; i++ {
		h.Observe(256)
	}
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got := h.Quantile(q); got != 256 {
			t.Errorf("Quantile(%v) = %d, want 256", q, got)
		}
	}
}

func TestHistogramEmptyAndNegative(t *testing.T) {
	h := &Histogram{}
	if h.Quantile(0.5) != 0 || h.count.Load() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Observe(-5) // clamps to 0
	if got := h.Quantile(1); got != 1 {
		t.Errorf("clamped observation lands in bucket 0 (bound 1); got %d", got)
	}
	s := h.snapshot()
	if s.Min != 0 || s.Sum != 0 {
		t.Errorf("clamped min/sum = %d/%d, want 0/0", s.Min, s.Sum)
	}
}

func TestBucketFor(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1 << 40, 40}, {1<<40 + 1, 41}}
	for _, c := range cases {
		if got := bucketFor(c.v); got != c.want {
			t.Errorf("bucketFor(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

// TestNilSafety: a nil registry and every handle it returns must be inert.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("c").Add(5)
	r.Counter("c").Inc()
	r.Gauge("g").Set(9)
	r.Histogram("h").Observe(1)
	if r.Counter("c").Value() != 0 || r.Gauge("g").Value() != 0 || r.Histogram("h").Quantile(1) != 0 {
		t.Fatal("nil registry handles must read as zero")
	}
	sp := r.SpanKind("op").Start("")
	child := sp.Child(r.SpanKind("sub"))
	if sp.End() != 0 || child.End() != 0 {
		t.Fatal("nil spans must end with zero duration")
	}
	s := r.Snapshot()
	if s == nil || len(s.Counters) != 0 || len(s.Spans) != 0 {
		t.Fatal("nil registry snapshot must be empty and non-nil")
	}
}

// TestConcurrentRecording hammers one registry from many goroutines and
// requires the final snapshot to account for every event exactly. Run under
// -race this is also the data-race gate for the whole package.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	const goroutines = 8
	const perG = 2000
	c := r.Counter("events_total")
	h := r.Histogram("latency_ns")
	g := r.Gauge("level")
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				h.Observe(int64(1) << uint(j%20))
				g.Set(int64(id))
				// Exercise the create-on-first-use path concurrently too.
				r.Counter("shared_total").Inc()
			}
		}(i)
	}
	wg.Wait()
	s := r.Snapshot()
	if got := s.Counters["events_total"]; got != goroutines*perG {
		t.Errorf("events_total = %d, want %d", got, goroutines*perG)
	}
	if got := s.Counters["shared_total"]; got != goroutines*perG {
		t.Errorf("shared_total = %d, want %d", got, goroutines*perG)
	}
	hs := s.Histograms["latency_ns"]
	if hs.Count != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", hs.Count, goroutines*perG)
	}
	if hs.Min != 1 || hs.Max != 1<<19 {
		t.Errorf("histogram min/max = %d/%d, want 1/%d", hs.Min, hs.Max, 1<<19)
	}
	var bucketSum int64
	for _, b := range hs.Buckets {
		bucketSum += b.Count
	}
	if bucketSum != hs.Count {
		t.Errorf("bucket counts sum to %d, want %d", bucketSum, hs.Count)
	}
}

func TestSpanParentChild(t *testing.T) {
	r := NewRegistry()
	root := r.SpanKind("core_reconcile").Start("alice")
	child := root.Child(r.SpanKind("exchange_drain"))
	if child.End() < 0 {
		t.Fatal("child duration must be non-negative")
	}
	root.End()
	s := r.Snapshot()
	if len(s.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(s.Spans))
	}
	// Ring is completion-ordered: child first.
	c, p := s.Spans[0], s.Spans[1]
	if c.Name != "exchange_drain" || p.Name != "core_reconcile" {
		t.Fatalf("span order: %q then %q", c.Name, p.Name)
	}
	if c.Parent != p.ID {
		t.Errorf("child.Parent = %d, want %d", c.Parent, p.ID)
	}
	if c.Peer != "alice" || p.Peer != "alice" {
		t.Errorf("peer label not inherited: %q / %q", c.Peer, p.Peer)
	}
	if s.Histograms["core_reconcile_ns"].Count != 1 || s.Histograms["exchange_drain_ns"].Count != 1 {
		t.Error("span durations must land in <name>_ns histograms")
	}
}

func TestSpanRingBounded(t *testing.T) {
	r := NewRegistry()
	k := r.SpanKind("op")
	for i := 0; i < spanRingSize+10; i++ {
		k.Start("").End()
	}
	if got := len(r.Snapshot().Spans); got != spanRingSize {
		t.Fatalf("ring holds %d spans, want %d", got, spanRingSize)
	}
}

func TestWriteProm(t *testing.T) {
	r := NewRegistry()
	r.Counter("lsm_flush_total").Add(3)
	r.Gauge("exchange_window_ewma_ns").Set(42)
	r.Histogram("lsm_wal_fsync_ns").Observe(1024)
	var b strings.Builder
	if err := WriteProm(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE orchestra_lsm_flush_total counter",
		"orchestra_lsm_flush_total 3",
		"# TYPE orchestra_exchange_window_ewma_ns gauge",
		"orchestra_exchange_window_ewma_ns 42",
		"# TYPE orchestra_lsm_wal_fsync_ns summary",
		`orchestra_lsm_wal_fsync_ns{quantile="0.5"} 1024`,
		"orchestra_lsm_wal_fsync_ns_count 1",
		"orchestra_lsm_wal_fsync_ns_sum 1024",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q\n%s", want, out)
		}
	}
	// Every non-comment line must be "name{...} value" or "name value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("malformed prom line %q", line)
		}
	}
}

// Starting and ending a span of a resolved kind allocates nothing, for a
// root span and for a child.
func TestWarmSpanAllocs(t *testing.T) {
	r := NewRegistry()
	k, drain := r.SpanKind("core_query"), r.SpanKind("exchange_drain")
	for name, f := range map[string]func(){
		"root": func() { k.Start("alice").End() },
		"child": func() {
			sp := k.Start("alice")
			sp.Child(drain).End()
			sp.End()
		},
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: a warm span allocates %v times, want 0", name, n)
		}
	}
	if got := r.Histogram("core_query_ns").snapshot().Count; got == 0 {
		t.Error("spans of a held kind did not reach its histogram")
	}
}
