package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"orchestra/internal/updates"
)

func TestTailPicksHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		used float64
	}{
		{15, 95, 50},     // 10 beyond p50 needs 20 samples; p50 is the floor
		{40, 95, 75},     // 40*0.25 = 10 beyond p75
		{100, 95, 90},    // exactly 10 beyond p90
		{199, 95, 90},    // 9.95 beyond p95: not enough
		{200, 95, 95},    // exactly 10 beyond p95
		{5000, 95, 95},   // never above what was asked for
		{5000, 99.9, 99}, // 5 beyond p99.9, 50 beyond p99
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		v, used, n := tail(xs, c.want)
		if used != c.used || n != c.n {
			t.Errorf("n=%d want p%g: used p%g n=%d, expected p%g n=%d", c.n, c.want, used, n, c.used, c.n)
		}
		if beyond := float64(c.n) * (100 - used) / 100; used > 50 && beyond < minBeyond {
			t.Errorf("n=%d: only %.2f samples beyond p%g", c.n, beyond, used)
		}
		if want := quantile(sorted(xs), used/100); v != want {
			t.Errorf("n=%d: value %g, expected the p%g order statistic %g", c.n, v, used, want)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] (extrapolates)
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Fatalf("quartiles = %g %g %g, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Layer: "core", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "p2p", Start: 10, End: 40},
		{ID: 3, Parent: 1, Layer: "p2p", Start: 30, End: 60},  // overlaps 2 on [30,40)
		{ID: 4, Parent: 1, Layer: "lsm", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 2, Layer: "lsm", Start: 15, End: 20},  // a grandchild: not the root's business
	}
	self := selfTimes(spans)
	// Children cover [10,60) and [90,100): 60 of the parent's 100.
	if self[1] != 40 {
		t.Errorf("root self = %d, want 40", self[1])
	}
	if self[2] != 25 { // 30 minus its 5-unit child
		t.Errorf("span 2 self = %d, want 25", self[2])
	}
	if self[3] != 30 || self[5] != 5 {
		t.Errorf("leaf selfs = %d, %d; want 30, 5", self[3], self[5])
	}
	totals := layerTotals(append(spans, span{ID: 6, Parent: 1, Layer: "core", Start: 60, End: 70}))
	if got := totals["core"].BusyNs; got != 100 {
		t.Errorf("core busy = %d, want 100: a core span nested in a core span counts once", got)
	}
	if got := timeUnder(spans, "lsm")[1]; got != 35 { // span 4 (30) and grandchild 5 (5)
		t.Errorf("lsm time under the root = %d, want 35", got)
	}
}

func TestTracerParentsAndNilTracer(t *testing.T) {
	tr := newTracer()
	tr.beginOp()
	a := tr.start("round", "root")
	b := tr.start("Reconcile", "core")
	c := tr.start("store.Since", "p2p")
	tr.end(c)
	tr.end(b)
	tr.end(a)
	tr.beginOp()
	d := tr.start("query", "root")
	tr.end(d)
	s := tr.spans
	if s[0].Parent != 0 || s[1].Parent != s[0].ID || s[2].Parent != s[1].ID || s[3].Parent != 0 {
		t.Errorf("parents wrong: %+v", s)
	}
	if s[0].Op != 1 || s[2].Op != 1 || s[3].Op != 2 {
		t.Errorf("operation ids wrong: %+v", s)
	}
	var none *tracer
	none.beginOp()
	none.end(none.start("x", "y")) // must not panic
}

func TestSameSeedSameStream(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b, c := w.gen(7, 1).digest(), w.gen(7, 1).digest(), w.gen(8, 1).digest()
		if a != b {
			t.Errorf("%s: seed 7 generated two different streams", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 generated the same stream", w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
}

func TestOperationCountsDoNotDependOnSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		count := func(p *plan) (rounds, txns, queries int) {
			for _, r := range p.rounds {
				rounds++
				for _, b := range r.bursts {
					txns += len(b.txns)
				}
				queries += len(r.queries)
			}
			return
		}
		r1, t1, q1 := count(w.gen(1, 2))
		r2, t2, q2 := count(w.gen(2, 2))
		if r1 != r2 || t1 != t2 || q1 != q2 {
			t.Errorf("%s: seed 1 plans %d/%d/%d rounds/txns/queries, seed 2 plans %d/%d/%d", w.name, r1, t1, q1, r2, t2, q2)
		}
	}
}

func TestKillCopyTruncatesToRecordedSizes(t *testing.T) {
	src, dst := t.TempDir(), t.TempDir()
	write := func(rel, data string) {
		path := filepath.Join(src, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteString(data); err != nil {
			t.Fatal(err)
		}
	}
	write("wal-000001.log", "acknowledged")
	write("sub/000002.sst", "table")
	sizes, err := statDir(src)
	if err != nil {
		t.Fatal(err)
	}
	// After the last acknowledged operation: more log bytes, and a new file.
	write("wal-000001.log", "-unflushed-tail")
	write("wal-000002.log", "born after the crash point")
	if err := killCopy(src, dst, sizes); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dst, "wal-000001.log"))
	if err != nil || string(got) != "acknowledged" {
		t.Errorf("copied log = %q, %v; want the acknowledged prefix only", got, err)
	}
	if got, _ := os.ReadFile(filepath.Join(dst, "sub/000002.sst")); string(got) != "table" {
		t.Errorf("copied table = %q", got)
	}
	if _, err := os.Stat(filepath.Join(dst, "wal-000002.log")); !os.IsNotExist(err) {
		t.Errorf("a file created after the crash point was copied (err=%v)", err)
	}
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json and the program's
// metric and workload tables together.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) || len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d/%d/%d workloads/end-to-end/per-layer, the program %d/%d/%d",
			len(b.Workloads), len(b.EndToEnd), len(b.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v vs %s", i, b.Workloads[i], w.name)
		}
	}
	hasSetup := false
	for i, d := range endToEnd {
		e := b.EndToEnd[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better || math.Abs(e.Bound-d.bound) > 1e-12 {
			t.Errorf("end-to-end %d: %+v vs %+v", i, e, d)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.name, d.bound)
		}
		hasSetup = hasSetup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	for i, d := range perLayer {
		e := b.PerLayer[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("per-layer %d: %+v vs %+v", i, e, d)
		}
	}
}

func TestRoundTxnsCutsHistoryByPublish(t *testing.T) {
	one := roundPlan{bursts: []burst{{peer: "a"}}}
	two := roundPlan{bursts: []burst{{peer: "a"}, {peer: "b"}}}
	p := &plan{preload: []roundPlan{one}, warm: two, rounds: []roundPlan{two, one}}
	var history []*updates.Transaction
	for _, epoch := range []uint64{1, 1, 2, 3, 3, 3, 4, 5, 6} { // epoch of each archived transaction
		history = append(history, &updates.Transaction{Epoch: epoch})
	}
	got := roundTxns(p, history)
	want := []int{2, 4, 2, 1} // epochs 1 | 2,3 | 4,5 | 6
	if len(got) != len(want) {
		t.Fatalf("%d rounds, want %d", len(got), len(want))
	}
	for i, n := range want {
		if len(got[i]) != n {
			t.Errorf("round %d holds %d transactions, want %d", i, len(got[i]), n)
		}
	}
}
