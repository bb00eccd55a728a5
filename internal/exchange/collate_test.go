package exchange

import (
	"math/rand"
	"strings"
	"testing"

	"orchestra/internal/schema"
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
