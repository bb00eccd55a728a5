package datalog

import (
	"testing"

	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

// TestMergeRederivationAllocatesNothing pins what most of a converging
// fixpoint's merges are: the re-derivation of a witness the tuple already
// stores, or of one the MaxMonomials cut drops, leaves the fact unchanged
// and allocates nothing.
func TestMergeRederivationAllocatesNothing(t *testing.T) {
	x, y, z := provenance.NewVar("x"), provenance.NewVar("y"), provenance.NewVar("z")
	rel := NewRel()
	tu := schema.NewTuple(schema.Int(1))
	opts := Options{Provenance: true, MaxMonomials: 2, Stats: &EvalStats{}}
	for _, p := range []provenance.Poly{x, y} {
		if _, changed := merge(rel, tu, p, opts); !changed {
			t.Fatalf("merging %v into a fresh witness set changed nothing", p)
		}
	}
	for name, p := range map[string]provenance.Poly{
		"stored witness": x,
		"cut witness":    y.Mul(z),
	} {
		if n := testing.AllocsPerRun(100, func() {
			if _, changed := merge(rel, tu, p, opts); changed {
				t.Fatalf("%s: re-derivation changed the fact", name)
			}
		}); n != 0 {
			t.Errorf("%s: %v allocations per merge, want 0", name, n)
		}
	}
	if got := opts.Stats.Truncations.Load(); got == 0 {
		t.Error("the cut dropped a witness but Truncations stayed 0")
	}
}
