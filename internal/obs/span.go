package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Span tracing: SpanKind.Start opens a timed operation, Child opens a
// nested one, End stamps the duration. Every ended span lands in two places —
// a duration histogram named "<span name>_ns" (so p50/p95/p99 per
// operation come for free) and a fixed-size ring of recent SpanRecords the
// introspection endpoint exposes for "what has the system been doing"
// questions. Parent/child linkage is by span id, so a reconcile span's
// per-window drain children are attributable to their round.
//
// A span is a small value, with no maps and no context plumbing. Each
// operation resolves its SpanKind — the name and its histogram — once and
// holds it, so starting and ending a span allocates nothing. Like
// everything in this package, spans are nil-safe: a nil registry resolves
// nil kinds, which start zero spans, whose Child and End are no-ops
// returning 0.

// spanRingSize bounds the recent-span ring. Power of two for cheap masking.
const spanRingSize = 256

// SpanRecord is one completed span as kept in the ring.
type SpanRecord struct {
	// ID is the span's unique id within the registry; Parent is 0 for roots.
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	// Name is the operation name ("core_publish", "exchange_drain", ...).
	Name string `json:"name"`
	// Peer is the optional peer label the span was started with.
	Peer string `json:"peer,omitempty"`
	// Start is the wall-clock start time in Unix nanoseconds.
	Start int64 `json:"start_unix_ns"`
	// DurationNs is the span's wall-clock duration in nanoseconds.
	DurationNs int64 `json:"duration_ns"`
}

// spanRing is a mutex-guarded fixed ring of completed spans. Span
// completion is per-operation (publish, reconcile window, checkpoint), not
// per-tuple, so a short critical section is cheap; the payoff is that
// recent() returns spans in completion order without coordination games.
type spanRing struct {
	mu   sync.Mutex
	buf  [spanRingSize]SpanRecord
	next uint64 // total spans ever recorded; next slot is next % size
}

func (r *spanRing) record(rec SpanRecord) {
	r.mu.Lock()
	r.buf[r.next%spanRingSize] = rec
	r.next++
	r.mu.Unlock()
}

// recent returns the ring's contents, oldest first.
func (r *spanRing) recent() []SpanRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if n == 0 {
		return nil
	}
	count := uint64(spanRingSize)
	if n < count {
		count = n
	}
	out := make([]SpanRecord, 0, count)
	for i := n - count; i < n; i++ {
		out = append(out, r.buf[i%spanRingSize])
	}
	return out
}

// spanIDs hands out registry-wide unique span ids. A single process-wide
// counter is fine: ids only need to be unique and non-zero.
var spanIDs atomic.Uint64

// SpanKind is one operation's spans resolved once: the registry, the name
// and the "<name>_ns" histogram every span of it ends into.
type SpanKind struct {
	reg  *Registry
	hist *Histogram
	name string
}

// SpanKind resolves the spans named name (nil on a nil registry). It
// allocates; resolve each kind once and keep it.
func (r *Registry) SpanKind(name string) *SpanKind {
	if r == nil {
		return nil
	}
	return &SpanKind{reg: r, hist: r.Histogram(name + "_ns"), name: name}
}

// Start opens a root span of the kind with a peer label ("" for none). A
// nil kind starts the zero span.
func (k *SpanKind) Start(peer string) Span {
	if k == nil {
		return Span{}
	}
	return Span{kind: k, peer: peer, id: spanIDs.Add(1), start: time.Now()}
}

// Span is one in-flight timed operation. The zero Span is a valid no-op.
type Span struct {
	kind   *SpanKind
	peer   string
	id     uint64
	parent uint64
	start  time.Time
}

// Child opens a nested span of kind k with s's peer label; its record
// links back to s. Returns the zero span on the zero span or a nil kind.
func (s Span) Child(k *SpanKind) Span {
	if s.kind == nil || k == nil {
		return Span{}
	}
	c := k.Start(s.peer)
	c.parent = s.id
	return c
}

// Name returns the span's operation name ("" on the zero span).
func (s Span) Name() string {
	if s.kind == nil {
		return ""
	}
	return s.kind.name
}

// End completes the span, records it, and returns its duration (0 on the
// zero span). End is idempotent in effect only by caller discipline — call
// it once.
func (s Span) End() time.Duration {
	if s.kind == nil {
		return 0
	}
	d := time.Since(s.start)
	s.kind.hist.Observe(d.Nanoseconds())
	s.kind.reg.spans.record(SpanRecord{
		ID:         s.id,
		Parent:     s.parent,
		Name:       s.kind.name,
		Peer:       s.peer,
		Start:      s.start.UnixNano(),
		DurationNs: d.Nanoseconds(),
	})
	return d
}
