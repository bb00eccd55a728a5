package exchange

import (
	"context"
	"testing"

	"orchestra/internal/datalog"
	"orchestra/internal/updates"
	"orchestra/internal/workload"
)

// TestTruncationsCounter: on a three-peer identity mesh every tuple echoes
// around the cycle, so its witness set outgrows a bound of 2 and the merge
// cut has to drop witnesses — which EvalStats.Truncations counts — while an
// unbounded engine never cuts.
func TestTruncationsCounter(t *testing.T) {
	topo := workload.Mesh(3)
	for _, c := range []struct {
		bound   int
		cutting bool
	}{{2, true}, {-1, false}} {
		var st datalog.EvalStats
		e, err := NewEngineWith(topo.Peers, topo.Mappings, Config{MaxMonomials: c.bound, Stats: &st})
		if err != nil {
			t.Fatal(err)
		}
		for i, peer := range topo.Names {
			id := int64(i % 2)
			tx := txn(peer, 1, updates.Insert("S", workload.STuple(id, id, workload.Sequence(id, id))))
			if _, err := e.Apply(context.Background(), tx); err != nil {
				t.Fatal(err)
			}
		}
		if got := st.Truncations.Load(); (got > 0) != c.cutting {
			t.Errorf("MaxMonomials %d: Truncations = %d, want it %s", c.bound, got, map[bool]string{true: "> 0", false: "0"}[c.cutting])
		}
	}
}
