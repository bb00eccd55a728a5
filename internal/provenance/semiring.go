package provenance

// Semiring describes a commutative semiring (K, +, ·, 0, 1): both
// operations are associative and commutative, · distributes over +, 0 is
// the additive identity and annihilates under ·, and 1 is the
// multiplicative identity. All provenance computations in the CDSS are
// parameterized by this interface.
type Semiring[T any] interface {
	// Zero returns the additive identity.
	Zero() T
	// One returns the multiplicative identity.
	One() T
	// Add combines alternative derivations.
	Add(a, b T) T
	// Mul combines joint (conjunctive) use of inputs.
	Mul(a, b T) T
	// Eq reports semantic equality of two elements.
	Eq(a, b T) bool
}

// BoolSemiring is the boolean semiring (B, ∨, ∧, false, true): evaluating
// a witness set under it answers "is this tuple still derivable?", which
// drives provenance-based deletion propagation.
type BoolSemiring struct{}

// Zero returns false.
func (BoolSemiring) Zero() bool { return false }

// One returns true.
func (BoolSemiring) One() bool { return true }

// Add is logical or.
func (BoolSemiring) Add(a, b bool) bool { return a || b }

// Mul is logical and.
func (BoolSemiring) Mul(a, b bool) bool { return a && b }

// Eq is boolean equality.
func (BoolSemiring) Eq(a, b bool) bool { return a == b }

// TrustSemiring is the fuzzy/confidence semiring ([0,1], max, min, 0, 1):
// evaluation computes the confidence of the *most trusted* derivation,
// where a joint derivation is only as trusted as its weakest input. This
// is the semiring ORCHESTRA's trust conditions evaluate provenance under.
type TrustSemiring struct{}

// Zero returns 0 (completely untrusted).
func (TrustSemiring) Zero() float64 { return 0 }

// One returns 1 (fully trusted).
func (TrustSemiring) One() float64 { return 1 }

// Add is max: alternative derivations take the best confidence.
func (TrustSemiring) Add(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Mul is min: a conjunction is as weak as its weakest conjunct.
func (TrustSemiring) Mul(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// Eq is numeric equality.
func (TrustSemiring) Eq(a, b float64) bool { return a == b }

// SecuritySemiring is the access-control semiring over clearance levels
// (Public < Confidential < Secret < TopSecret < Unusable) with
// (min-rank, max-rank) as (+, ·): an alternative derivation lowers the
// required clearance, a joint derivation requires the stricter one.
type SecuritySemiring struct{}

// Clearance levels, ordered from least to most restricted.
const (
	Public       = int8(0)
	Confidential = int8(1)
	Secret       = int8(2)
	TopSecret    = int8(3)
	Unusable     = int8(4) // additive identity: no derivation at all
)

// Zero returns Unusable.
func (SecuritySemiring) Zero() int8 { return Unusable }

// One returns Public.
func (SecuritySemiring) One() int8 { return Public }

// Add takes the less restricted level.
func (SecuritySemiring) Add(a, b int8) int8 {
	if a < b {
		return a
	}
	return b
}

// Mul takes the more restricted level.
func (SecuritySemiring) Mul(a, b int8) int8 {
	if a > b {
		return a
	}
	return b
}

// Eq is equality of levels.
func (SecuritySemiring) Eq(a, b int8) bool { return a == b }
