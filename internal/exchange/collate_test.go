package exchange

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"orchestra/internal/schema"
	"orchestra/internal/updates"
	"orchestra/internal/workload"
)

// Collation sorts its net changes by (predicate, tuple) with
// compareQualifiedKeys; the order must be exactly sort.Strings over
// pred+"/"+tuple.Key(), including predicates that are prefixes of one
// another or contain '/'.
func TestCompareQualifiedKeysMatchesStringOrder(t *testing.T) {
	preds := []string{"p", "p0", "p.R", "p.R2", "p/", "p/x", "q", "", "p.R/a"}
	rng := rand.New(rand.NewSource(5))
	tuple := func() schema.Tuple {
		switch rng.Intn(3) {
		case 0:
			return schema.NewTuple(schema.Int(rng.Int63n(200) - 100))
		case 1:
			return schema.NewTuple(schema.String(string(rune('a'+rng.Intn(3)))), schema.Int(rng.Int63n(20)))
		}
		return schema.NewTuple(schema.String("x/" + string(rune('a'+rng.Intn(3)))))
	}
	for i := 0; i < 5000; i++ {
		pa, pb := preds[rng.Intn(len(preds))], preds[rng.Intn(len(preds))]
		ta, tb := tuple(), tuple()
		want := strings.Compare(pa+"/"+ta.Key(), pb+"/"+tb.Key())
		if got := compareQualifiedKeys(pa, ta, pb, tb); got != want {
			t.Fatalf("compareQualifiedKeys(%q %v, %q %v) = %d, string order %d", pa, ta, pb, tb, got, want)
		}
	}
}

// A transaction that deletes rows of several relations hands each peer its
// deletes in (predicate, key) order. Collation used to emit the unpaired
// deletes by ranging over a map keyed by predicate, so identical runs could
// order Beijing's O, P and S deletes differently, and that order reaches
// the candidate, the apply hook and the engine blob's transaction bytes.
func TestCollateOrdersDeletesAcrossRelations(t *testing.T) {
	ins := txn(workload.Alaska, 1,
		updates.Insert("S", workload.STuple(1, 10, "ACGT")),
		updates.Insert("P", workload.PTuple("p53", 10)),
		updates.Insert("O", workload.OTuple("mouse", 1)),
	)
	del := txn(workload.Alaska, 2,
		updates.Delete("S", workload.STuple(1, 10, "ACGT")),
		updates.Delete("P", workload.PTuple("p53", 10)),
		updates.Delete("O", workload.OTuple("mouse", 1)),
	)
	want := []string{"O", "P", "S"}
	for run := 0; run < 200; run++ {
		e := fig2Engine(t)
		if _, err := e.Apply(context.Background(), ins); err != nil {
			t.Fatal(err)
		}
		res, err := e.Apply(context.Background(), del)
		if err != nil {
			t.Fatal(err)
		}
		for _, peer := range []string{workload.Alaska, workload.Beijing} {
			var got []string
			for _, u := range res.PerPeer[peer] {
				if u.Op != updates.OpDelete {
					t.Fatalf("run %d: %s: unexpected %v", run, peer, u)
				}
				got = append(got, u.Rel)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("run %d: %s deletes in relation order %v, want %v", run, peer, got, want)
			}
		}
	}
}
