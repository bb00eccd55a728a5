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

// A transaction that removes two tuples of one relation under one key hands
// each peer a delete for each. Alaska publishes S(1,10,AAAA), Beijing
// S(1,10,CCCC), and the mappings copy each to the other; Alaska then deletes
// both in one transaction, the one it published and the one it derived.
// Collation used to index removed tuples by key alone, so the second
// overwrote the first and both peers were handed only -S(1,10,CCCC). When
// the same transaction also inserts at that key, the insert pairs with one
// removed tuple into a modify and the other delete comes before it:
// reconciliation takes a key's last update as the transaction's write there.
func TestCollateKeepsEveryDeleteAtAKey(t *testing.T) {
	a, c, g := workload.STuple(1, 10, "AAAA"), workload.STuple(1, 10, "CCCC"), workload.STuple(1, 10, "GGGG")
	for _, tc := range []struct {
		name string
		del  *updates.Transaction
		want []updates.Update
	}{
		{"delete both", txn(workload.Alaska, 2, updates.Delete("S", a), updates.Delete("S", c)),
			[]updates.Update{updates.Delete("S", a), updates.Delete("S", c)}},
		{"delete both and insert", txn(workload.Alaska, 2, updates.Delete("S", a), updates.Delete("S", c), updates.Insert("S", g)),
			[]updates.Update{updates.Delete("S", a), updates.Modify("S", c, g)}},
	} {
		e := fig2Engine(t)
		for _, pub := range []*updates.Transaction{
			txn(workload.Alaska, 1, updates.Insert("S", a)),
			txn(workload.Beijing, 1, updates.Insert("S", c)),
		} {
			if _, err := e.Apply(context.Background(), pub); err != nil {
				t.Fatal(err)
			}
		}
		res, err := e.Apply(context.Background(), tc.del)
		if err != nil {
			t.Fatal(err)
		}
		for _, peer := range []string{workload.Alaska, workload.Beijing} {
			got := res.PerPeer[peer]
			if len(got) != len(tc.want) {
				t.Fatalf("%s: %s is handed %v, want %v", tc.name, peer, got, tc.want)
			}
			for i, u := range got {
				w := tc.want[i]
				if u.Op != w.Op || u.Rel != w.Rel || !u.Old.Equal(w.Old) || !u.New.Equal(w.New) {
					t.Fatalf("%s: %s is handed %v, want %v", tc.name, peer, got, tc.want)
				}
			}
		}
	}
}
