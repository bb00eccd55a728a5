package orchestra_test

// BenchmarkChurnRetainedHeap measures what a long-running peer keeps in
// memory when its live state stays empty (ROADMAP item 18): alice and bob
// of exampleSchema, on a durable directory; each round alice commits 20
// inserts of fresh keys and a transaction deleting them and publishes, bob
// reconciles, and bob checkpoints every 100 rounds. Bob holds no rows at the
// end. It reports the process heap after a GC, taken before Close
// (heap-MB), and the size of bob's last engine snapshot (snapshot-B). The
// numbers are reported, not gated. ORCH_CHURN_ROUNDS sets the number of
// rounds (default 20, which keeps `make bench-smoke` fast; ROADMAP 18 reads
// it at 250 to 2000).

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"

	"orchestra"
)

func BenchmarkChurnRetainedHeap(b *testing.B) {
	rounds := 20
	if s := os.Getenv("ORCH_CHURN_ROUNDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			b.Fatalf("ORCH_CHURN_ROUNDS=%q: want a positive integer", s)
		}
		rounds = n
	}
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		sys, err := orchestra.Open(exampleSchema(), orchestra.WithDurableDir(b.TempDir()))
		if err != nil {
			b.Fatal(err)
		}
		alice, err := sys.Peer("alice")
		if err != nil {
			b.Fatal(err)
		}
		bob, err := sys.Peer("bob")
		if err != nil {
			b.Fatal(err)
		}
		for r := 0; r < rounds; r++ {
			genes := make([]orchestra.Tuple, 20)
			ins, del := alice.Begin(), alice.Begin()
			for j := range genes {
				genes[j] = orchestra.NewTuple(orchestra.String(fmt.Sprintf("g%d_%d", r, j)), orchestra.Int(int64(j)))
				ins.Insert("Gene", genes[j])
			}
			if _, err := ins.Commit(); err != nil {
				b.Fatal(err)
			}
			for _, g := range genes {
				del.Delete("Gene", g)
			}
			if _, err := del.Commit(); err != nil {
				b.Fatal(err)
			}
			if _, err := alice.Publish(ctx); err != nil {
				b.Fatal(err)
			}
			if _, err := bob.Reconcile(ctx); err != nil {
				b.Fatal(err)
			}
			if (r+1)%100 == 0 {
				if err := bob.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := bob.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		if rows, err := bob.Rows("Gene"); err != nil || len(rows) != 0 {
			b.Fatalf("bob holds %d rows (%v), want none", len(rows), err)
		}
		stats, ok, err := bob.SnapshotStats()
		if err != nil || !ok {
			b.Fatalf("bob's snapshot: ok %v, %v", ok, err)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		b.ReportMetric(float64(ms.HeapAlloc)/1e6, "heap-MB")
		b.ReportMetric(float64(stats.Bytes), "snapshot-B")
		if err := sys.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
