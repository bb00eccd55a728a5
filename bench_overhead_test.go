package orchestra_test

// Instrumentation-overhead pairs: three evaluator workloads run with the
// stats sink disabled and enabled — incremental maintenance of the Figure 2
// CDSS, one full fixpoint of the 3-way join mapping, and one stratum of
// independent join rules. Each
// benchmark reports the enabled/disabled time ratio as "on/off";
// scripts/bench_overhead.sh takes its median over COUNT runs and fails past
// OVERHEAD_TOLERANCE (3% in CI). DESIGN.md §12 records the methodology and
// measured numbers.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"orchestra/internal/datalog"
	"orchestra/internal/exchange"
	"orchestra/internal/mapping"
	"orchestra/internal/schema"
	"orchestra/internal/updates"
	"orchestra/internal/workload"
)

// overheadPair builds one instance of a workload with no stats sink and one
// with a fresh sink, runs both in every iteration, and reports the median
// over iterations of their time ratio. Timing the arms microseconds apart
// keeps machine load, which drifts over seconds on a shared host, out of
// each ratio; alternating which arm goes first keeps either from always
// paying for the other's garbage; the median drops the iterations a
// collection lands on.
func overheadPair(b *testing.B, setup func(stats *datalog.EvalStats) (iteration func())) {
	off, on := setup(nil), setup(&datalog.EvalStats{})
	timed := func(run func()) float64 {
		t0 := time.Now()
		run()
		return float64(time.Since(t0))
	}
	ratios := make([]float64, b.N)
	b.ResetTimer()
	for i := range ratios {
		if i%2 == 0 {
			offT := timed(off)
			ratios[i] = timed(on) / offT
		} else {
			onT := timed(on)
			ratios[i] = onT / timed(off)
		}
	}
	b.StopTimer()
	sort.Float64s(ratios)
	b.ReportMetric(ratios[len(ratios)/2], "on/off")
}

func applyEach(b *testing.B, eng *exchange.Engine, txns []*updates.Transaction) {
	for _, t := range txns {
		if _, err := eng.Apply(context.Background(), t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverheadIncremental propagates a 64-transaction insert delta per
// iteration through a Figure 2 engine seeded with 400 single-insert
// transactions at Alaska. The delta is sized so one iteration costs
// milliseconds — small enough to stay incremental, big enough that the
// ratio is not scheduler noise.
func BenchmarkOverheadIncremental(b *testing.B) {
	const base = 400
	overheadPair(b, func(stats *datalog.EvalStats) func() {
		eng, err := exchange.NewEngineWith(workload.Figure2Peers(), workload.Figure2Mappings(),
			exchange.Config{Stats: stats})
		if err != nil {
			b.Fatal(err)
		}
		keySpace := int(math.Ceil(math.Sqrt(base)))
		applyEach(b, eng, []*updates.Transaction{
			workload.OPBaseTxn(workload.Alaska, 1, keySpace, base/keySpace+2)})
		applyEach(b, eng, workload.Stream(workload.Alaska, 2, base, workload.StreamOpts{
			TxnSize: 1, KeySpace: int64(keySpace), Seed: 7,
		}))
		seq, key := uint64(base+2), int64(1<<40)
		return func() {
			delta := make([]*updates.Transaction, 0, 64)
			for j := 0; j < 64; j++ {
				delta = append(delta, &updates.Transaction{
					ID:      updates.TxnID{Peer: workload.Alaska, Seq: seq},
					Updates: []updates.Update{updates.Insert("S", workload.STuple(key, key, "ACGT"))},
				})
				seq++
				key++
			}
			applyEach(b, eng, delta)
		}
	})
}

// evalOnce is the overheadPair set-up whose iteration evaluates prog over
// edb from scratch with witness provenance.
func evalOnce(b *testing.B, prog *datalog.Program, edb *datalog.DB) func(stats *datalog.EvalStats) func() {
	return func(stats *datalog.EvalStats) func() {
		return func() {
			if _, err := datalog.EvalCtx(context.Background(), prog, edb, datalog.Options{Provenance: true, Stats: stats}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkOverheadJoin is one full fixpoint of the acyclic join mapping
// OPS(org, prot, seq) :- O, P, S over 2000 S-tuples and the O/P rows they
// join with.
func BenchmarkOverheadJoin(b *testing.B) {
	const n = 2000
	prog, err := mapping.Compile([]*mapping.Mapping{workload.JoinMapping("M_AC", "a", "c")})
	if err != nil {
		b.Fatal(err)
	}
	keySpace := int(math.Ceil(math.Sqrt(n)))
	edb := datalog.NewDB()
	for i := 0; i < keySpace; i++ {
		edb.AddTuple("a.O", workload.OTuple(workload.Organism(i), int64(i)))
	}
	for i := 0; i <= n/keySpace+1; i++ {
		edb.AddTuple("a.P", workload.PTuple(workload.Protein(i), int64(i)))
	}
	for i := 0; i < n; i++ {
		oid, pid := int64(i%keySpace), int64(i/keySpace)
		edb.AddTuple("a.S", workload.STuple(oid, pid, workload.Sequence(oid, pid)))
	}
	overheadPair(b, evalOnce(b, prog, edb))
}

// BenchmarkOverheadStratum is one stratum of four independent two-way join
// rules over disjoint 500-row relations — the shape where many mapping rules
// fire in the same round — where per-probe stats recording is hottest.
func BenchmarkOverheadStratum(b *testing.B) {
	const nrules, nrows = 4, 500
	prog := &datalog.Program{}
	edb := datalog.NewDB()
	for r := 0; r < nrules; r++ {
		ra, rb, rh := fmt.Sprintf("A%d", r), fmt.Sprintf("B%d", r), fmt.Sprintf("H%d", r)
		prog.Rules = append(prog.Rules, datalog.Rule{
			ID:   fmt.Sprintf("j%d", r),
			Head: datalog.NewHead(rh, datalog.HV("x"), datalog.HV("z")),
			Body: []datalog.Literal{
				datalog.Pos(datalog.NewAtom(ra, datalog.V("x"), datalog.V("y"))),
				datalog.Pos(datalog.NewAtom(rb, datalog.V("y"), datalog.V("z"))),
			},
		})
		for i := int64(0); i < nrows; i++ {
			edb.AddTuple(ra, schema.NewTuple(schema.Int(i), schema.Int(i%97)))
			edb.AddTuple(rb, schema.NewTuple(schema.Int(i%97), schema.Int(i)))
		}
	}
	overheadPair(b, evalOnce(b, prog, edb))
}
