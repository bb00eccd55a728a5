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

// BenchmarkApplyAllChain translates bursts of S insertions published at the
// head of a four-peer identity chain through Engine.ApplyAll — every
// insertion propagates three mapping hops down the chain — and reports beside
// time and allocation the garbage collector's share of the CPU capacity
// over the timed loop (gc-cpu-frac, from runtime/metrics; a run too short
// for a GC cycle can read 0).
func BenchmarkApplyAllChain(b *testing.B) {
	const burst = 32
	topo := workload.Chain(4)
	e, err := NewEngineWith(topo.Peers, topo.Mappings, Config{})
	if err != nil {
		b.Fatal(err)
	}
	txns := workload.Stream(topo.Names[0], 1, b.N*burst, workload.StreamOpts{TxnSize: 4, Seed: 1})
	ctx := context.Background()
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
