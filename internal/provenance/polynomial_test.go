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
	if sq.Degree() != 2 {
		t.Errorf("degree = %d", sq.Degree())
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

func TestEvalHomomorphism(t *testing.T) {
	// p = x·y + z.
	p := v("x").Mul(v("y")).Add(v("z"))
	// Under boolean with z=false: x·y still derives it.
	assignB := func(x Var) bool { return x != "z" }
	if !Eval[bool](p, BoolSemiring{}, assignB) {
		t.Error("bool eval should be true via x·y")
	}
	// With y also false, nothing derives it.
	assignB2 := func(x Var) bool { return x == "x" }
	if Eval[bool](p, BoolSemiring{}, assignB2) {
		t.Error("bool eval should be false")
	}
	// Under trust with x=0.9, y=0.4, z=0.7: max(min(.9,.4), .7) = 0.7.
	assignT := func(x Var) float64 {
		switch x {
		case "x":
			return 0.9
		case "y":
			return 0.4
		default:
			return 0.7
		}
	}
	if got := Eval[float64](p, TrustSemiring{}, assignT); got != 0.7 {
		t.Errorf("trust eval = %v, want 0.7", got)
	}
	// Under security with x=Public, y=Secret, z=Confidential: the joint
	// derivation needs Secret, the alternative only Confidential.
	assignS := func(x Var) int8 {
		switch x {
		case "x":
			return Public
		case "y":
			return Secret
		default:
			return Confidential
		}
	}
	if got := Eval[int8](p, SecuritySemiring{}, assignS); got != Confidential {
		t.Errorf("security eval = %d, want %d", got, Confidential)
	}
}

// checkEvalCommutes checks that Eval into s is a homomorphism on random
// witness sets: it commutes with Add and Mul.
func checkEvalCommutes[T any](t *testing.T, name string, s Semiring[T], draw func(*rand.Rand) T) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 500; i++ {
		p, q := randPoly(rng), randPoly(rng)
		assign := map[Var]T{}
		for _, n := range alphabet {
			assign[n] = draw(rng)
		}
		get := func(x Var) T { return assign[x] }
		ep, eq := Eval(p, s, get), Eval(q, s, get)
		if got := Eval(p.Add(q), s, get); !s.Eq(got, s.Add(ep, eq)) {
			t.Fatalf("%s: Eval(p+q) = %v, want Eval(p)+Eval(q) = %v for p=%v q=%v", name, got, s.Add(ep, eq), p, q)
		}
		if got := Eval(p.Mul(q), s, get); !s.Eq(got, s.Mul(ep, eq)) {
			t.Fatalf("%s: Eval(p·q) = %v, want Eval(p)·Eval(q) = %v for p=%v q=%v", name, got, s.Mul(ep, eq), p, q)
		}
	}
}

// Property: Eval is a semiring homomorphism from B[X] into every idempotent
// semiring the system evaluates provenance under — the reason witness sets
// lose nothing those semirings can see.
func TestQuickEvalCommutes(t *testing.T) {
	checkEvalCommutes[bool](t, "bool", BoolSemiring{}, func(r *rand.Rand) bool { return r.Intn(2) == 0 })
	checkEvalCommutes[float64](t, "trust", TrustSemiring{}, func(r *rand.Rand) float64 { return float64(r.Intn(101)) / 100 })
	checkEvalCommutes[int8](t, "security", SecuritySemiring{}, func(r *rand.Rand) int8 { return int8(r.Intn(5)) })
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
