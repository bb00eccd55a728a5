package provenance

import (
	"slices"
	"strings"
	"testing"
)

func TestTruncateKeepsLowestDegree(t *testing.T) {
	x, y, z := v("x"), v("y"), v("z")
	// p = x + y·z + x·y·z : degrees 1, 2, 3.
	p := x.Add(y.Mul(z)).Add(x.Mul(y).Mul(z))
	q := truncate(p, 2)
	if q.NumMonomials() != 2 {
		t.Fatalf("truncated to %d monomials", q.NumMonomials())
	}
	if degree(q) != 2 {
		t.Errorf("kept degree %d; want the two shortest derivations", degree(q))
	}
	// The shortest derivation always survives.
	if !q.Subsumes(x) {
		t.Errorf("lost the degree-1 witness: %v", q)
	}
}

func TestTruncateNoOpCases(t *testing.T) {
	p := v("x").Add(v("y"))
	if !truncate(p, 0).Equal(p) {
		t.Error("k=0 must mean unbounded")
	}
	if !truncate(p, 5).Equal(p) {
		t.Error("k larger than size must be a no-op")
	}
	if !truncate(Zero(), 3).Equal(Zero()) {
		t.Error("zero truncation broken")
	}
}

func TestTruncatePreservesDerivabilityOfKept(t *testing.T) {
	// Truncation may drop alternative witnesses but never invents
	// derivability: Derivable(truncated) implies Derivable(full).
	x, y, z, w := v("x"), v("y"), v("z"), v("w")
	p := x.Mul(y).Add(z.Mul(w)).Add(x.Mul(w))
	q := truncate(p, 2)
	checks := [][]Var{{"x", "y"}, {"z", "w"}, {"x", "w"}, {"x"}, {}}
	for _, aliveSet := range checks {
		aliveMap := map[Var]bool{}
		for _, a := range aliveSet {
			aliveMap[a] = true
		}
		alive := func(v Var) bool { return aliveMap[v] }
		if q.Derivable(alive) && !p.Derivable(alive) {
			t.Errorf("truncation invented derivability under %v", aliveSet)
		}
	}
}

// TestMonomialKey pins the canonical order to the byte order of monomial
// keys (each name followed by ';'): a name sorts after its own extension,
// "x:1/23" before "x:1/2", whatever order the ids were minted in.
func TestMonomialKey(t *testing.T) {
	x := v("x").Mul(v("x")).Mul(v("y"))
	if m := monomialsOf(x)[0]; monoKey(m) != "x;y;" {
		t.Errorf("key = %q", monoKey(m))
	}
	p := v("x:1/2").Add(v("x:1/23")).Add(v("x:1/2").Mul(v("z")))
	if got, want := p.String(), "x:1/23 + x:1/2 + x:1/2·z"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	// Names holding ';' spell other monomials' keys: "a;b" has the key of
	// a·b, and "a;" sorts after both.
	p = p.Add(v("a;b")).Add(v("a").Mul(v("b"))).Add(v("a;")).Add(v("a").Mul(v("c"))).
		Add(v("a")).Add(v("a").Mul(v("b;")))
	for _, m := range monomialsOf(p) {
		for _, n := range monomialsOf(p) {
			got, want := cmpMono(m, n), strings.Compare(monoKey(m), monoKey(n))
			switch {
			case want != 0 && got != want:
				t.Errorf("cmpMono(%v, %v) = %d, key order says %d", m, n, got, want)
			case want == 0 && (got != -cmpMono(n, m) || (got == 0) != slices.Equal(m, n)):
				t.Errorf("cmpMono(%v, %v) = %d does not order one key's two monomials", m, n, got)
			}
		}
	}
}

func TestSubsumes(t *testing.T) {
	x, y := v("x"), v("y")
	p := x.Add(x.Mul(y))
	if !p.Subsumes(x) {
		t.Error("p must subsume its own monomial")
	}
	if p.Subsumes(y) {
		t.Error("p must not subsume an absent monomial")
	}
	// x·x is x.
	if !p.Subsumes(x.Mul(x)) {
		t.Error("x·x must be subsumed by p containing x")
	}
	if !Zero().Subsumes(Zero()) {
		t.Error("zero subsumes zero")
	}
	if Zero().Subsumes(x) {
		t.Error("zero subsumes nothing else")
	}
}
