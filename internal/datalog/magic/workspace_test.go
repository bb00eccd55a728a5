package magic

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"orchestra/internal/datalog"
)

// Two goroutines evaluate one Prepared at once, over one EDB, with
// alternating constants: one of them holds the shape's workspace while the
// other builds its own, and both must get the answers a sequential
// evaluation of a freshly prepared shape gives. Under make race this is
// the data-race gate for the workspace's hand-over.
func TestPreparedConcurrentEvals(t *testing.T) {
	var edges [][2]string
	for i := 0; i < 24; i++ {
		edges = append(edges, [2]string{fmt.Sprint("n", i), fmt.Sprint("n", i+1)})
		if i%4 == 0 {
			edges = append(edges, [2]string{fmt.Sprint("n", i), fmt.Sprint("m", i)})
		}
	}
	edb := edgeDB(edges)
	goal := func(src int) datalog.Atom {
		return datalog.NewAtom("reach", datalog.C(str(fmt.Sprint("n", src))), datalog.V("y"))
	}
	opts := datalog.Options{Provenance: true}
	ctx := context.Background()
	const sources = 6
	want := make([][]datalog.Fact, sources)
	for src := range want {
		ans, _, err := EvalGoal(ctx, tcRules(), goal(src*4), edb, opts, Options{})
		if err != nil || len(ans) == 0 {
			t.Fatalf("n%d: %d answers, err %v", src*4, len(ans), err)
		}
		want[src] = ans
	}
	prep, err := Prepare(tcRules(), goal(0))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				src := (i + g) % sources
				got, err := prep.Eval(ctx, GoalConsts(nil, goal(src*4)), edb, opts)
				if err != nil {
					t.Error(err)
					return
				}
				if !sameFacts(got, want[src]) {
					t.Errorf("goroutine %d, query %d (n%d): got %v, want %v", g, i, src*4, got, want[src])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// sameFacts reports whether two answer lists hold the same tuples with the
// same polynomials, in the same order.
func sameFacts(got, want []datalog.Fact) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !got[i].Tuple.Equal(want[i].Tuple) || !got[i].Prov.Equal(want[i].Prov) {
			return false
		}
	}
	return true
}
