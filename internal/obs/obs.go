// Package obs is the system's zero-dependency observability core: named
// atomic counters and gauges, lock-cheap fixed-bucket histograms with
// percentile estimation, and lightweight span tracing with parent/child
// timing. Every layer of the system records into one Registry owned by the
// facade; cmd/orchestra serves its snapshot over HTTP, and the repo
// benchmark (bench/) reads it per workload.
//
// The package is designed so that DISABLED instrumentation costs almost
// nothing on hot paths: every method is safe on a nil receiver and returns
// immediately, so a layer opened without a registry pays one predictable
// nil check per operation — no allocation, no atomics, no time syscalls
// (callers gate their time.Now() reads on the handle being non-nil). An
// ENABLED registry costs one atomic add per counter event and two atomic
// adds plus a clock read per histogram observation; metric handles are
// resolved once at component construction, never per event.
package obs

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The nil Counter is
// a valid no-op.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (no-op on nil).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one (no-op on nil).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The nil Gauge is a valid no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value (no-op on nil).
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Value returns the current gauge value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count: bucket i counts observations v
// with upperBound(i-1) < v <= upperBound(i), where upperBound(i) = 1<<i.
// 63 buckets cover every non-negative int64, so one histogram layout serves
// nanosecond latencies, byte volumes, and batch sizes alike.
const histBuckets = 63

// bucketFor returns the bucket index for a value: the smallest i with
// v <= 1<<i. Values <= 1 land in bucket 0; negatives are clamped.
func bucketFor(v int64) int {
	if v <= 1 {
		return 0
	}
	return bits.Len64(uint64(v - 1))
}

// BucketBound returns bucket i's inclusive upper bound, 1<<i.
func BucketBound(i int) int64 { return int64(1) << uint(i) }

// Histogram is a lock-free fixed-bucket histogram over non-negative int64
// values (latencies in nanoseconds, sizes in bytes or items). Buckets are
// powers of two, so Observe is two atomic adds and a bit-length; quantiles
// are exact whenever the observed values are themselves bucket bounds
// (powers of two) and otherwise report the matching bucket's upper bound —
// at most a 2x overestimate, which is the usual log-bucket contract. The
// nil Histogram is a valid no-op.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // valid only when count > 0
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value (no-op on nil; negatives clamp to 0).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketFor(v)].Add(1)
	h.sum.Add(v)
	if h.count.Add(1) == 1 {
		// First observation seeds min/max; racing observers converge through
		// the CAS loops below.
		h.min.Store(v)
		h.max.Store(v)
	}
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Quantile returns the value at quantile q in [0, 1]: the upper bound of
// the first bucket whose cumulative count reaches q of the total. Returns
// 0 with no observations.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	// ceil(q * total) observations must be covered; clamp into [1, total].
	need := int64(q*float64(total) + 0.9999999)
	if need < 1 {
		need = 1
	}
	if need > total {
		need = total
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= need {
			return BucketBound(i)
		}
	}
	return h.max.Load()
}

// snapshot captures the histogram's current state.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{}
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	if s.Count == 0 {
		return s
	}
	s.Sum = h.sum.Load()
	s.Min = h.min.Load()
	s.Max = h.max.Load()
	s.P50 = h.Quantile(0.50)
	s.P95 = h.Quantile(0.95)
	s.P99 = h.Quantile(0.99)
	for i := 0; i < histBuckets; i++ {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, BucketCount{Bound: BucketBound(i), Count: n})
		}
	}
	return s
}

// BucketCount is one non-empty histogram bucket in a snapshot.
type BucketCount struct {
	// Bound is the bucket's inclusive upper bound.
	Bound int64 `json:"bound"`
	// Count is the number of observations in the bucket.
	Count int64 `json:"count"`
}

// HistogramSnapshot is a point-in-time view of one histogram.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Min     int64         `json:"min"`
	Max     int64         `json:"max"`
	P50     int64         `json:"p50"`
	P95     int64         `json:"p95"`
	P99     int64         `json:"p99"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Mean returns the snapshot's mean observation (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Registry is a named collection of metrics plus a ring of recent spans.
// Metric handles are created on first use and live for the registry's
// lifetime; lookups take a read lock, so components resolve their handles
// once at construction and record through the lock-free handles afterward.
// The nil Registry is a valid disabled registry: every method no-ops and
// every returned handle is nil (itself a no-op).
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	spans spanRing
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it if needed (nil on a nil
// registry).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed (nil on a nil
// registry).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed (nil on a
// nil registry).
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot captures every metric's current value. A nil registry returns
// an empty (but non-nil) snapshot, so render paths need no special case.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.RUnlock()
	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	for k, v := range hists {
		s.Histograms[k] = v.snapshot()
	}
	s.Spans = r.spans.recent()
	return s
}

// Snapshot is a point-in-time view of a registry, JSON-marshalable as-is.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Spans      []SpanRecord                 `json:"spans,omitempty"`
}

// SortedCounterNames returns the snapshot's counter names in order, for
// deterministic rendering.
func (s *Snapshot) SortedCounterNames() []string {
	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
