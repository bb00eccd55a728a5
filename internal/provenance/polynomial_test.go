package provenance

import (
	"math/rand"
	"testing"
)

func v(name string) Poly { return NewVar(Var(name)) }

// monomialsOf returns p's monomials in canonical order, as views into its
// buffer.
func monomialsOf(p Poly) []Monomial {
	out := make([]Monomial, p.NumMonomials())
	for i := range out {
		out[i] = p.Monomial(i)
	}
	return out
}

func TestPolyBasics(t *testing.T) {
	if !Zero().IsZero() {
		t.Error("Zero not zero")
	}
	if !One().IsOne() {
		t.Error("One not one")
	}
	x := v("x")
	if x.IsZero() || x.IsOne() {
		t.Error("variable misclassified")
	}
	if x.String() != "x" {
		t.Errorf("x renders as %q", x.String())
	}
}

func TestPolyAddMul(t *testing.T) {
	x, y := v("x"), v("y")
	// (x + y)·(x + y) = x + x·y + y: x·x is x, and x·y + y·x is x·y.
	sq := x.Add(y).Mul(x.Add(y))
	want := x.Add(x.Mul(y)).Add(y)
	if !sq.Equal(want) {
		t.Errorf("(x+y)^2 = %v, want %v", sq, want)
	}
	if d := degree(sq); d != 2 {
		t.Errorf("degree = %d", d)
	}
	if sq.NumMonomials() != 3 {
		t.Errorf("monomials = %d", sq.NumMonomials())
	}
}

func TestPolyCanonicalForm(t *testing.T) {
	x, y := v("x"), v("y")
	a := x.Mul(y)
	b := y.Mul(x)
	if !a.Equal(b) {
		t.Error("xy != yx: canonical form broken")
	}
	// x + x = x, represented once.
	if two := x.Add(x); two.NumMonomials() != 1 || !two.Equal(x) {
		t.Errorf("x+x = %v", two)
	}
	// Addition/multiplication with zero/one shortcuts.
	if !x.Add(Zero()).Equal(x) || !Zero().Add(x).Equal(x) {
		t.Error("zero addition identity broken")
	}
	if !x.Mul(One()).Equal(x) || !One().Mul(x).Equal(x) {
		t.Error("one multiplication identity broken")
	}
	if !x.Mul(Zero()).IsZero() {
		t.Error("zero annihilation broken")
	}
}

func TestPolyVars(t *testing.T) {
	p := v("b").Mul(v("a")).Add(v("c"))
	vars := p.Vars()
	if len(vars) != 3 || vars[0] != "a" || vars[1] != "b" || vars[2] != "c" {
		t.Errorf("Vars = %v", vars)
	}
}

func TestDerivableAndRestrict(t *testing.T) {
	// p = x·y + z
	p := v("x").Mul(v("y")).Add(v("z"))
	all := func(Var) bool { return true }
	if !p.Derivable(all) {
		t.Error("derivable with all vars")
	}
	noZ := func(x Var) bool { return x != "z" }
	if !p.Derivable(noZ) {
		t.Error("still derivable via x·y")
	}
	onlyZ := func(x Var) bool { return x == "z" }
	if !p.Derivable(onlyZ) {
		t.Error("still derivable via z")
	}
	onlyX := func(x Var) bool { return x == "x" }
	if p.Derivable(onlyX) {
		t.Error("not derivable with only x")
	}
	r := p.Restrict(noZ)
	if !r.Equal(v("x").Mul(v("y"))) {
		t.Errorf("Restrict = %v", r)
	}
	// Restrict with everything alive returns p unchanged (same value).
	if !p.Restrict(all).Equal(p) {
		t.Error("Restrict(all) changed p")
	}
	if !p.Restrict(func(Var) bool { return false }).IsZero() {
		t.Error("Restrict(none) should be zero")
	}
	// Constants are always derivable.
	if !One().Derivable(func(Var) bool { return false }) {
		t.Error("constant 1 must be derivable")
	}
	if Zero().Derivable(all) {
		t.Error("zero is never derivable")
	}
}

// degree returns p's largest monomial size, 0 for constants and zero.
func degree(p Poly) int {
	d := 0
	for i := range p.NumMonomials() {
		d = max(d, len(p.Monomial(i)))
	}
	return d
}

// Semiring describes a commutative semiring (K, +, ·, 0, 1): both
// operations are associative and commutative, · distributes over +, 0 is
// the additive identity and annihilates under ·, and 1 is the
// multiplicative identity.
type Semiring[T any] interface {
	Zero() T
	One() T
	Add(a, b T) T
	Mul(a, b T) T
	Eq(a, b T) bool
}

// checkSemiringLaws verifies the commutative-semiring axioms, and the
// idempotence of +, on sampled elements.
func checkSemiringLaws[T any](t *testing.T, name string, s Semiring[T], gen func() T) {
	t.Helper()
	f := func() bool {
		a, b, c := gen(), gen(), gen()
		// Associativity and commutativity of +.
		if !s.Eq(s.Add(s.Add(a, b), c), s.Add(a, s.Add(b, c))) {
			return false
		}
		if !s.Eq(s.Add(a, b), s.Add(b, a)) {
			return false
		}
		// Identity and annihilator.
		if !s.Eq(s.Add(a, s.Zero()), a) {
			return false
		}
		if !s.Eq(s.Mul(a, s.One()), a) {
			return false
		}
		if !s.Eq(s.Mul(a, s.Zero()), s.Zero()) {
			return false
		}
		// Associativity and commutativity of ·.
		if !s.Eq(s.Mul(s.Mul(a, b), c), s.Mul(a, s.Mul(b, c))) {
			return false
		}
		if !s.Eq(s.Mul(a, b), s.Mul(b, a)) {
			return false
		}
		// Idempotence of +.
		if !s.Eq(s.Add(a, a), a) {
			return false
		}
		// Distributivity.
		return s.Eq(s.Mul(a, s.Add(b, c)), s.Add(s.Mul(a, b), s.Mul(a, c)))
	}
	for i := 0; i < 200; i++ {
		if !f() {
			t.Fatalf("%s: semiring law violated", name)
		}
	}
}

// checkMulIdempotent verifies a · a = a on sampled elements.
func checkMulIdempotent[T any](t *testing.T, name string, s Semiring[T], gen func() T) {
	t.Helper()
	for i := 0; i < 200; i++ {
		if a := gen(); !s.Eq(s.Mul(a, a), a) {
			t.Fatalf("%s: %v · %v = %v", name, a, a, s.Mul(a, a))
		}
	}
}

// witnessSemiring is B[X] as a Semiring[Poly], for the law checks.
type witnessSemiring struct{}

func (witnessSemiring) Zero() Poly         { return Zero() }
func (witnessSemiring) One() Poly          { return One() }
func (witnessSemiring) Add(a, b Poly) Poly { return a.Add(b) }
func (witnessSemiring) Mul(a, b Poly) Poly { return a.Mul(b) }
func (witnessSemiring) Eq(a, b Poly) bool  { return a.Equal(b) }

// TestWitnessSemiringLaws checks that Add and Mul make B[X] a commutative
// semiring with idempotent +, whose · is idempotent on monomials (x·x = x).
// · is not idempotent on sums: (x + y)·(x + y) = x + x·y + y.
func TestWitnessSemiringLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	checkSemiringLaws[Poly](t, "B[X]", witnessSemiring{}, func() Poly { return randPoly(rng) })
	checkMulIdempotent[Poly](t, "B[X] monomials", witnessSemiring{}, func() Poly {
		ms := monomialsOf(randPoly(rng))
		return FromMonomials(ms[:min(1, len(ms))])
	})
}

func TestPolyString(t *testing.T) {
	p := v("x").Mul(v("y")).Mul(v("x")).Add(v("y")).Add(One())
	got := p.String()
	// Canonical order: constant monomial key "" sorts first.
	if got != "1 + x·y + y" {
		t.Errorf("String() = %q", got)
	}
	if Zero().String() != "0" {
		t.Errorf("Zero renders as %q", Zero().String())
	}
}
