package main

import (
	"sort"
	"time"
)

// span is one benchmark-owned trace record. Spans are recorded from outside
// the program, around the calls into each layer; Op groups the spans of one
// user-visible operation (a round, a query, a recovery).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for roots
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. The benchmark has one
// client goroutine, so the open-span stack gives each span its parent. The
// nil tracer records nothing: the timed run passes nil.
type tracer struct {
	origin time.Time
	spans  []span
	stack  []int // indexes into spans
	op     int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// beginOp starts a new operation id; spans started until the next beginOp
// share it.
func (t *tracer) beginOp() {
	if t != nil {
		t.op++
	}
}

// start opens a span under the innermost open span and returns its handle.
func (t *tracer) start(name, layer string) int {
	if t == nil {
		return -1
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.spans[t.stack[n-1]].ID
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{
		ID: idx + 1, Parent: parent, Op: t.op, Name: name, Layer: layer,
		Start: time.Since(t.origin).Nanoseconds(),
	})
	t.stack = append(t.stack, idx)
	return idx
}

// end closes the span start returned; spans close innermost first.
func (t *tracer) end(idx int) {
	if t == nil {
		return
	}
	t.spans[idx].End = time.Since(t.origin).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its direct children cover. Overlapping children are merged
// first, so a stretch covered by two children is subtracted once, and child
// time outside the parent's interval is ignored.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// layerTotal is one layer's share of a trace: busy time (spans of the layer
// not nested inside another span of the same layer, so nothing counts
// twice), self time, and span count.
type layerTotal struct {
	BusyNs int64
	SelfNs int64
	Count  int
}

func layerTotals(spans []span) map[string]*layerTotal {
	self := selfTimes(spans)
	layerOf := make(map[int]string, len(spans))
	for _, s := range spans {
		layerOf[s.ID] = s.Layer
	}
	out := map[string]*layerTotal{}
	for _, s := range spans {
		lt := out[s.Layer]
		if lt == nil {
			lt = &layerTotal{}
			out[s.Layer] = lt
		}
		if layerOf[s.Parent] != s.Layer {
			lt.BusyNs += s.dur()
		}
		lt.SelfNs += self[s.ID]
		lt.Count++
	}
	return out
}

// timeUnder returns, per span ID, how much of the span its descendants of
// the given layer cover.
func timeUnder(spans []span, layer string) map[int]int64 {
	parent := make(map[int]int, len(spans))
	layerOf := make(map[int]string, len(spans))
	for _, s := range spans {
		parent[s.ID], layerOf[s.ID] = s.Parent, s.Layer
	}
	out := map[int]int64{}
	for _, s := range spans {
		if s.Layer != layer || layerOf[s.Parent] == layer {
			continue
		}
		for a := s.Parent; a != 0; a = parent[a] {
			out[a] += s.dur()
		}
	}
	return out
}
