package provenance

import (
	"slices"
	"sort"
	"strings"
)

// Var identifies a provenance token: in ORCHESTRA, one token is minted per
// base (published) tuple, so a polynomial over Vars describes exactly which
// combinations of published data derive a tuple.
type Var string

// Monomial is one witness: the set of tokens that jointly derive a tuple,
// sorted and without repeats. The empty monomial is the constant 1.
type Monomial []Var

// Key returns the canonical key of the monomial: each variable followed by
// ';'. Two monomials with the same Key are one witness.
func (m Monomial) Key() string {
	var b strings.Builder
	b.Grow(varKeyLen(m))
	writeVarKey(&b, m)
	return b.String()
}

// varKeyLen returns the length of m's key.
func varKeyLen(m Monomial) int {
	n := 0
	for _, x := range m {
		n += len(x) + 1
	}
	return n
}

// writeVarKey writes m's key: each variable and a ';'.
func writeVarKey(b *strings.Builder, m Monomial) {
	for _, x := range m {
		b.WriteString(string(x))
		b.WriteByte(';')
	}
}

// String renders the monomial, e.g. "x·y"; the empty monomial is "1".
func (m Monomial) String() string {
	if len(m) == 0 {
		return "1"
	}
	parts := make([]string, len(m))
	for i, x := range m {
		parts[i] = string(x)
	}
	return strings.Join(parts, "·")
}

// Poly is a provenance polynomial in B[X], the witness-set semiring: a set
// of monomials, each a set of tokens. + is set union and · the pairwise
// union of monomials, so p + p = p and x·x = x. Evaluation into any
// semiring whose + and · are idempotent factors through B[X], so witness
// sets answer every question those semirings ask — derivability
// (BoolSemiring), trust (TrustSemiring), clearance (SecuritySemiring) —
// exactly; see Eval.
//
// A Poly is kept in canonical form: monomials sorted by key, no repeats.
// The zero polynomial is the zero value. Poly values are immutable;
// operations return new polynomials.
//
// Every polynomial points at a canonical node carrying a precomputed
// structural hash and the cached key of each monomial, built through the
// bounded hash-consing cache in intern.go: recurring polynomials share one
// allocation, so equality on them is a pointer comparison (with a
// hash-guarded structural fallback when two equal values missed each other
// in the cache), and Add/Subsumes walk the cached sorted keys instead of
// rebuilding map-and-sort state per operation.
type Poly struct {
	n *polyNode
}

// Zero returns the zero polynomial (no derivations).
func Zero() Poly { return Poly{} }

// One returns the constant polynomial 1.
func One() Poly { return polyOne }

// polyOne is the interned constant 1 — the most common annotation in the
// system (every set-semantics fact), shared process-wide.
var polyOne = newNode([]Monomial{{}}, []string{""}).Intern()

// NewVar returns the polynomial consisting of the single variable x.
func NewVar(x Var) Poly {
	return newNode([]Monomial{{x}}, []string{string(x) + ";"})
}

// IsZero reports whether p is the zero polynomial.
func (p Poly) IsZero() bool { return p.n == nil }

// IsOne reports whether p is the constant 1.
func (p Poly) IsOne() bool {
	return p.n != nil && len(p.n.monos) == 1 && len(p.n.monos[0]) == 0
}

// Monomials returns the canonical monomial list (shared; do not modify).
func (p Poly) Monomials() []Monomial {
	if p.n == nil {
		return nil
	}
	return p.n.monos
}

// Keys returns the canonical key of each monomial, aligned with
// Monomials() and sorted ascending. The slice is the interned node's cache:
// shared, do not modify.
func (p Poly) Keys() []string {
	if p.n == nil {
		return nil
	}
	return p.n.keys
}

// Hash returns the precomputed structural hash of the polynomial.
func (p Poly) Hash() uint64 {
	if p.n == nil {
		return 0
	}
	return p.n.hash
}

// NumMonomials returns the number of monomials (distinct witnesses).
func (p Poly) NumMonomials() int {
	if p.n == nil {
		return 0
	}
	return len(p.n.monos)
}

// Degree returns the maximum monomial degree, or 0 for constants/zero.
func (p Poly) Degree() int {
	d := 0
	for _, m := range p.Monomials() {
		d = max(d, len(m))
	}
	return d
}

// Vars returns the sorted set of variables mentioned in p.
func (p Poly) Vars() []Var {
	set := map[Var]bool{}
	for _, m := range p.Monomials() {
		for _, x := range m {
			set[x] = true
		}
	}
	out := make([]Var, 0, len(set))
	for x := range set {
		out = append(out, x)
	}
	slices.Sort(out)
	return out
}

// FromMonomials builds the polynomial whose witnesses are monos: each
// monomial's variables are sorted and deduplicated, then repeated monomials
// merge. The input is copied; the caller keeps ownership of its slices.
func FromMonomials(monos []Monomial) Poly {
	out := make([]Monomial, len(monos))
	keys := make([]string, len(monos))
	for i, m := range monos {
		m = slices.Compact(slices.Sorted(slices.Values(m)))
		out[i], keys[i] = m, m.Key()
	}
	return canonicalize(out, keys)
}

// canonicalize sorts a raw (owned) monomial list by key, drops repeated
// keys, and interns the result.
func canonicalize(monos []Monomial, keys []string) Poly {
	if len(monos) == 0 {
		return Poly{}
	}
	sort.Sort(&monoSorter{monos: monos, keys: keys})
	w := 0
	for r := range monos {
		if r > 0 && keys[r] == keys[w-1] {
			continue
		}
		monos[w], keys[w] = monos[r], keys[r]
		w++
	}
	return newNode(monos[:w], keys[:w])
}

// Add returns p + q, the union of the two witness sets: one merge of the
// two sorted key lists that returns an operand unchanged when it already
// contains the other.
func (p Poly) Add(q Poly) Poly {
	merged, _, _, _ := mergeWitness(p, q, 0, false)
	return merged
}

// Mul returns p · q: each pair of monomials contributes the sorted union of
// their variables, written once into one shared variable array and one key
// string, and the pairs are then sorted and deduplicated.
func (p Poly) Mul(q Poly) Poly {
	if p.IsZero() || q.IsZero() {
		return Poly{}
	}
	if p.IsOne() {
		return q
	}
	if q.IsOne() {
		return p
	}
	pm, qm := p.n.monos, q.n.monos
	nv, nb := 0, 0
	for _, a := range pm {
		nv += len(qm) * len(a)
		nb += len(qm) * varKeyLen(a)
	}
	for _, b := range qm {
		nv += len(pm) * len(b)
		nb += len(pm) * varKeyLen(b)
	}
	vars := make([]Var, 0, nv)
	monos := make([]Monomial, 0, len(pm)*len(qm))
	keys := make([]string, 0, len(pm)*len(qm))
	var kb strings.Builder
	kb.Grow(nb)
	for _, a := range pm {
		for _, b := range qm {
			start, kstart := len(vars), kb.Len()
			i, j := 0, 0
			for i < len(a) || j < len(b) {
				var x Var
				switch {
				case j == len(b) || (i < len(a) && a[i] < b[j]):
					x = a[i]
					i++
				case i == len(a) || b[j] < a[i]:
					x = b[j]
					j++
				default:
					x = a[i]
					i++
					j++
				}
				vars = append(vars, x)
				kb.WriteString(string(x))
				kb.WriteByte(';')
			}
			monos = append(monos, vars[start:len(vars):len(vars)])
			keys = append(keys, kb.String()[kstart:])
		}
	}
	return canonicalize(monos, keys)
}

// Equal reports canonical equality of two polynomials. Every canonical
// polynomial is interned, so live equal polynomials share one node and the
// comparison is pointer-fast; the structural fallback (gated on the
// precomputed hash) is defense in depth and never fires under the intern
// invariant.
func (p Poly) Equal(q Poly) bool {
	if p.n == q.n {
		return true
	}
	if p.n == nil || q.n == nil || p.n.hash != q.n.hash {
		return false
	}
	return sameMonos(p.n.monos, q.n.monos)
}

// String renders the polynomial, e.g. "x·y + z".
func (p Poly) String() string {
	if p.IsZero() {
		return "0"
	}
	parts := make([]string, len(p.n.monos))
	for i, m := range p.n.monos {
		parts[i] = m.String()
	}
	return strings.Join(parts, " + ")
}

// Eval evaluates p under the semiring homomorphism determined by assign:
// each variable x is replaced by assign(x) and +/· are interpreted in s.
// For every s whose + and · are idempotent — BoolSemiring, TrustSemiring,
// SecuritySemiring — this is a homomorphism from B[X]: Eval(p + q) =
// Eval(p) + Eval(q) and Eval(p · q) = Eval(p) · Eval(q). So one witness set
// answers derivability, trust and clearance questions alike.
func Eval[T any](p Poly, s Semiring[T], assign func(Var) T) T {
	acc := s.Zero()
	for _, m := range p.Monomials() {
		term := s.One()
		for _, x := range m {
			term = s.Mul(term, assign(x))
		}
		acc = s.Add(acc, term)
	}
	return acc
}

// Derivable reports whether p is still derivable when exactly the variables
// in alive are present (all others deleted). It is Eval under the boolean
// semiring with the characteristic assignment of alive, and is the test
// that drives provenance-based deletion propagation in update exchange.
func (p Poly) Derivable(alive func(Var) bool) bool {
	for _, m := range p.Monomials() {
		if allAlive(m, alive) {
			return true
		}
	}
	return false
}

func allAlive(m Monomial, alive func(Var) bool) bool {
	for _, x := range m {
		if !alive(x) {
			return false
		}
	}
	return true
}

// Restrict returns p with all monomials mentioning a dead variable removed —
// the polynomial of the instance after deleting those base tuples.
func (p Poly) Restrict(alive func(Var) bool) Poly {
	if p.IsZero() {
		return p
	}
	out := make([]Monomial, 0, len(p.n.monos))
	keys := make([]string, 0, len(p.n.monos))
	for i, m := range p.n.monos {
		if allAlive(m, alive) {
			out = append(out, m)
			keys = append(keys, p.n.keys[i])
		}
	}
	if len(out) == len(p.n.monos) {
		return p
	}
	return newNode(out, keys)
}

// Subsumes reports whether every monomial of q is present in p: the ≤ test
// of the B[X] lattice used by the fixpoint convergence check. Both key lists
// are sorted, so this is a two-pointer containment walk over the cached
// keys — no map is built.
func (p Poly) Subsumes(q Poly) bool {
	if q.IsZero() || p.n == q.n {
		return true
	}
	pk, qk := p.Keys(), q.Keys()
	if len(qk) > len(pk) {
		return false
	}
	i := 0
	for _, k := range qk {
		for i < len(pk) && pk[i] < k {
			i++
		}
		if i == len(pk) || pk[i] != k {
			return false
		}
		i++
	}
	return true
}
