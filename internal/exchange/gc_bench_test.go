package exchange

import (
	"context"
	"runtime"
	"runtime/metrics"
	"testing"

	"orchestra/internal/workload"
)

// gcCPU reads the runtime's cumulative GC CPU time and the CPU capacity
// (GOMAXPROCS × wall time) available to the process, in seconds.
func gcCPU() (gc, total float64) {
	ss := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(ss)
	return ss[0].Value.Float64(), ss[1].Value.Float64()
}

// BenchmarkApplyAllChain translates bursts of 32 four-insert transactions
// published at the head of a four-peer identity chain through
// Engine.ApplyAll: every insertion propagates three mapping hops down the
// chain.
func BenchmarkApplyAllChain(b *testing.B) {
	benchApplyAll(b, workload.Chain(4), 32, 4, 0)
}

// BenchmarkApplyAllMesh translates bursts of 14 single-insert transactions
// published at one peer of a three-peer identity mesh: each transaction is
// one small Incremental.Insert, so its fixed per-call cost shows. Another
// peer's bulk transaction of 5,000 inserts goes first, untimed: evaluation
// state an Insert keeps across calls must not make every later small one
// pay for the large one.
func BenchmarkApplyAllMesh(b *testing.B) {
	benchApplyAll(b, workload.Mesh(3), 14, 1, 5000)
}

// benchApplyAll feeds bursts of burst transactions of txnSize S insertions,
// published at topo's first peer, through one engine's ApplyAll, after one
// untimed transaction of bulk insertions at its second peer when bulk > 0.
// It reports
// beside time and allocation the garbage collector's share of the CPU
// capacity over the timed loop (gc-cpu-frac, from runtime/metrics; a run too
// short for a GC cycle can read 0).
func benchApplyAll(b *testing.B, topo *workload.Topology, burst, txnSize, bulk int) {
	e, err := NewEngineWith(topo.Peers, topo.Mappings, Config{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if bulk > 0 {
		pre := workload.Stream(topo.Names[1], 1, 1, workload.StreamOpts{TxnSize: bulk, Seed: 2})
		if _, err := e.ApplyAll(ctx, pre); err != nil {
			b.Fatal(err)
		}
	}
	txns := workload.Stream(topo.Names[0], 1, b.N*burst, workload.StreamOpts{TxnSize: txnSize, Seed: 1})
	runtime.GC()
	gc0, total0 := gcCPU()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ApplyAll(ctx, txns[i*burst:(i+1)*burst]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	gc1, total1 := gcCPU()
	frac := 0.0
	if total1 > total0 {
		frac = (gc1 - gc0) / (total1 - total0)
	}
	b.ReportMetric(frac, "gc-cpu-frac")
}
