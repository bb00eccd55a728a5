package provenance

import (
	"testing"
	"testing/quick"
)

// checkSemiringLaws verifies the commutative-semiring axioms, and the
// idempotence of + every semiring here has, on sampled elements.
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

func TestSemiringLaws(t *testing.T) {
	var seed uint64 = 12345
	next := func() uint64 { seed = seed*6364136223846793005 + 1442695040888963407; return seed }

	genBool := func() bool { return next()%2 == 0 }
	genTrust := func() float64 { return float64(next()%101) / 100 }
	genLevel := func() int8 { return int8(next() % 5) }
	checkSemiringLaws[bool](t, "bool", BoolSemiring{}, genBool)
	checkSemiringLaws[float64](t, "trust", TrustSemiring{}, genTrust)
	checkSemiringLaws[int8](t, "security", SecuritySemiring{}, genLevel)
	checkMulIdempotent[bool](t, "bool", BoolSemiring{}, genBool)
	checkMulIdempotent[float64](t, "trust", TrustSemiring{}, genTrust)
	checkMulIdempotent[int8](t, "security", SecuritySemiring{}, genLevel)
}

func TestSecurityLevels(t *testing.T) {
	s := SecuritySemiring{}
	// A joint derivation using a Secret and a Public tuple needs Secret.
	if s.Mul(Public, Secret) != Secret {
		t.Error("joint clearance wrong")
	}
	// An alternative Public derivation makes the data Public.
	if s.Add(Secret, Public) != Public {
		t.Error("alternative clearance wrong")
	}
	if s.Add(s.Zero(), TopSecret) != TopSecret {
		t.Error("Unusable must be additive identity")
	}
}

func TestTrustSemiringWeakestLink(t *testing.T) {
	s := TrustSemiring{}
	// Conjunction of 0.9-trusted and 0.3-trusted inputs is 0.3-trusted.
	if got := s.Mul(0.9, 0.3); got != 0.3 {
		t.Errorf("Mul(0.9,0.3) = %v", got)
	}
	// Best of two alternative derivations.
	if got := s.Add(0.3, 0.7); got != 0.7 {
		t.Errorf("Add(0.3,0.7) = %v", got)
	}
}

// Property-based law check via testing/quick, which generates the boolean
// carrier directly.
func TestQuickBoolDistributivity(t *testing.T) {
	s := BoolSemiring{}
	f := func(a, b, c bool) bool {
		return s.Mul(a, s.Add(b, c)) == s.Add(s.Mul(a, b), s.Mul(a, c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
