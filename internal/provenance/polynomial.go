package provenance

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Var identifies a provenance token: in ORCHESTRA, one token is minted per
// base (published) tuple, so a polynomial over Vars describes exactly which
// combinations of published data derive a tuple.
type Var string

// VarPow is one factor x^k of a monomial.
type VarPow struct {
	Var Var
	Pow int
}

// Monomial is coef · x1^k1 · ... · xn^kn with Vars sorted by name and all
// powers ≥ 1. A Monomial with no vars is a constant.
type Monomial struct {
	Coef uint64
	Vars []VarPow
}

// varKey returns the canonical key of the monomial's variable part. It is
// computed once per interned monomial (see intern.go) and cached alongside
// the canonical monomial list, so it avoids fmt.
func (m Monomial) varKey() string {
	var b strings.Builder
	b.Grow(varKeyLen(m))
	writeVarKey(&b, m)
	return b.String()
}

// varKeyLen bounds the length of m's variable key from above.
func varKeyLen(m Monomial) int {
	n := 0
	for _, vp := range m.Vars {
		n += len(vp.Var) + 1
		if vp.Pow != 1 {
			n += 21 // '^' and at most 20 characters of an int
		}
	}
	return n
}

// writeVarKey writes m's variable key: each variable, its power when not
// 1, and a ';'.
func writeVarKey(b *strings.Builder, m Monomial) {
	for _, vp := range m.Vars {
		b.WriteString(string(vp.Var))
		if vp.Pow != 1 {
			b.WriteByte('^')
			b.WriteString(strconv.Itoa(vp.Pow))
		}
		b.WriteByte(';')
	}
}

// Key returns the canonical key of the monomial's variable part (ignoring
// the coefficient); two monomials with the same Key merge under addition.
func (m Monomial) Key() string { return m.varKey() }

// Degree returns the total degree of the monomial.
func (m Monomial) Degree() int {
	d := 0
	for _, vp := range m.Vars {
		d += vp.Pow
	}
	return d
}

// String renders the monomial, e.g. "2·x·y^2".
func (m Monomial) String() string {
	if len(m.Vars) == 0 {
		return fmt.Sprintf("%d", m.Coef)
	}
	parts := []string{}
	if m.Coef != 1 {
		parts = append(parts, fmt.Sprintf("%d", m.Coef))
	}
	for _, vp := range m.Vars {
		if vp.Pow == 1 {
			parts = append(parts, string(vp.Var))
		} else {
			parts = append(parts, fmt.Sprintf("%s^%d", vp.Var, vp.Pow))
		}
	}
	return strings.Join(parts, "·")
}

// Poly is a provenance polynomial in N[X], kept in canonical form: monomials
// sorted by variable key, no zero coefficients, variable lists sorted and
// deduplicated. The zero polynomial is the zero value. Poly values are
// immutable; operations return new polynomials.
//
// Every polynomial points at a canonical node carrying a precomputed
// structural hash and the cached variable key of each monomial, built
// through the bounded hash-consing cache in intern.go: recurring
// polynomials share one allocation, so equality on them is a pointer
// comparison (with a hash-guarded structural fallback when two equal values
// missed each other in the cache), and Add/Linearize/Subsumes reuse the
// cached sorted keys instead of rebuilding map-and-sort state per
// operation. Linearizations are memoized per node.
type Poly struct {
	n *polyNode
}

// Zero returns the zero polynomial (no derivations).
func Zero() Poly { return Poly{} }

// One returns the constant polynomial 1.
func One() Poly { return Const(1) }

// Const returns the constant polynomial c.
func Const(c uint64) Poly {
	if c == 0 {
		return Poly{}
	}
	if c == 1 {
		return polyOne
	}
	return newNode([]Monomial{{Coef: c}}, []string{""})
}

// polyOne is the interned constant 1 — the most common annotation in the
// system (every set-semantics fact), shared process-wide.
var polyOne = newNode([]Monomial{{Coef: 1}}, []string{""}).Intern()

// NewVar returns the polynomial consisting of the single variable x.
func NewVar(x Var) Poly {
	m := Monomial{Coef: 1, Vars: []VarPow{{Var: x, Pow: 1}}}
	return newNode([]Monomial{m}, []string{m.varKey()})
}

// IsZero reports whether p is the zero polynomial.
func (p Poly) IsZero() bool { return p.n == nil }

// IsOne reports whether p is the constant 1.
func (p Poly) IsOne() bool {
	return p.n != nil && len(p.n.monos) == 1 && p.n.monos[0].Coef == 1 && len(p.n.monos[0].Vars) == 0
}

// Monomials returns the canonical monomial list (shared; do not modify).
func (p Poly) Monomials() []Monomial {
	if p.n == nil {
		return nil
	}
	return p.n.monos
}

// Keys returns the canonical variable key of each monomial, aligned with
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

// NumMonomials returns the number of monomials (distinct derivation shapes).
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
		if md := m.Degree(); md > d {
			d = md
		}
	}
	return d
}

// Vars returns the sorted set of variables mentioned in p.
func (p Poly) Vars() []Var {
	set := map[Var]bool{}
	for _, m := range p.Monomials() {
		for _, vp := range m.Vars {
			set[vp.Var] = true
		}
	}
	out := make([]Var, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FromMonomials builds a polynomial from raw monomials, normalizing into
// canonical form (merging duplicates, dropping zero coefficients). The
// input monomials are copied; the caller keeps ownership of its slices.
func FromMonomials(monos []Monomial) Poly {
	out := make([]Monomial, 0, len(monos))
	keys := make([]string, 0, len(monos))
	for _, m := range monos {
		if m.Coef == 0 {
			continue
		}
		out = append(out, Monomial{Coef: m.Coef, Vars: append([]VarPow(nil), m.Vars...)})
		keys = append(keys, m.varKey())
	}
	return canonicalize(out, keys, false)
}

// canonicalize sorts a raw (owned) monomial list by variable key, merges
// duplicate keys by coefficient addition (capped at 1 when capCoef is set),
// drops zero coefficients, and interns the result. It replaces the old
// map[string]*Monomial + sort.Strings normalizer with one sort and a linear
// in-place merge.
func canonicalize(monos []Monomial, keys []string, capCoef bool) Poly {
	if len(monos) == 0 {
		return Poly{}
	}
	sort.Sort(&monoSorter{monos: monos, keys: keys})
	w := 0
	for r := 0; r < len(monos); {
		m := monos[r]
		k := keys[r]
		coef := m.Coef
		for r++; r < len(monos) && keys[r] == k; r++ {
			coef += monos[r].Coef
		}
		if capCoef && coef > 1 {
			coef = 1
		}
		if coef == 0 {
			continue
		}
		monos[w] = Monomial{Coef: coef, Vars: m.Vars}
		keys[w] = k
		w++
	}
	return newNode(monos[:w], keys[:w])
}

// Add returns p + q: a single merge of the two canonical (sorted) monomial
// lists using the cached keys — no map, no re-sort, no key recomputation.
func (p Poly) Add(q Poly) Poly {
	if p.IsZero() {
		return q
	}
	if q.IsZero() {
		return p
	}
	am, ak := p.n.monos, p.n.keys
	bm, bk := q.n.monos, q.n.keys
	monos := make([]Monomial, 0, len(am)+len(bm))
	keys := make([]string, 0, len(am)+len(bm))
	i, j := 0, 0
	for i < len(am) && j < len(bm) {
		switch {
		case ak[i] < bk[j]:
			monos = append(monos, am[i])
			keys = append(keys, ak[i])
			i++
		case ak[i] > bk[j]:
			monos = append(monos, bm[j])
			keys = append(keys, bk[j])
			j++
		default:
			if c := am[i].Coef + bm[j].Coef; c != 0 {
				monos = append(monos, Monomial{Coef: c, Vars: am[i].Vars})
				keys = append(keys, ak[i])
			}
			i++
			j++
		}
	}
	for ; i < len(am); i++ {
		monos = append(monos, am[i])
		keys = append(keys, ak[i])
	}
	for ; j < len(bm); j++ {
		monos = append(monos, bm[j])
		keys = append(keys, bk[j])
	}
	return newNode(monos, keys)
}

// mulMono multiplies two monomials.
func mulMono(a, b Monomial) Monomial {
	out := Monomial{Coef: a.Coef * b.Coef, Vars: make([]VarPow, 0, len(a.Vars)+len(b.Vars))}
	i, j := 0, 0
	for i < len(a.Vars) && j < len(b.Vars) {
		switch {
		case a.Vars[i].Var < b.Vars[j].Var:
			out.Vars = append(out.Vars, a.Vars[i])
			i++
		case a.Vars[i].Var > b.Vars[j].Var:
			out.Vars = append(out.Vars, b.Vars[j])
			j++
		default:
			out.Vars = append(out.Vars, VarPow{Var: a.Vars[i].Var, Pow: a.Vars[i].Pow + b.Vars[j].Pow})
			i++
			j++
		}
	}
	out.Vars = append(out.Vars, a.Vars[i:]...)
	out.Vars = append(out.Vars, b.Vars[j:]...)
	return out
}

// Mul returns p · q.
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
	monos := make([]Monomial, 0, len(pm)*len(qm))
	keys := make([]string, 0, len(pm)*len(qm))
	for _, a := range pm {
		for _, b := range qm {
			m := mulMono(a, b)
			if m.Coef == 0 {
				continue
			}
			monos = append(monos, m)
			keys = append(keys, m.varKey())
		}
	}
	return canonicalize(monos, keys, false)
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

// String renders the polynomial, e.g. "x·y + 2·z".
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
// This is the "factorization" property of N[X]: a single polynomial answers
// trust, derivability, counting, and cost queries.
//
// Coefficients are interpreted as c-fold sums of 1 and powers as k-fold
// products, both computed by double-and-add / square-and-multiply, so the
// cost is O(log c + log k) semiring operations rather than O(c + k).
func Eval[T any](p Poly, s Semiring[T], assign func(Var) T) T {
	acc := s.Zero()
	for _, m := range p.Monomials() {
		term := addTimes(s, m.Coef)
		for _, vp := range m.Vars {
			v := assign(vp.Var)
			if vp.Pow == 1 {
				term = s.Mul(term, v)
			} else if vp.Pow > 1 {
				term = s.Mul(term, powTimes(s, v, vp.Pow))
			}
		}
		acc = s.Add(acc, term)
	}
	return acc
}

// addTimes returns the c-fold sum 1 + 1 + ... + 1 in s, by double-and-add.
func addTimes[T any](s Semiring[T], c uint64) T {
	acc := s.Zero()
	base := s.One()
	for c > 0 {
		if c&1 != 0 {
			acc = s.Add(acc, base)
		}
		c >>= 1
		if c != 0 {
			base = s.Add(base, base)
		}
	}
	return acc
}

// powTimes returns v^k in s (k ≥ 1), by square-and-multiply.
func powTimes[T any](s Semiring[T], v T, k int) T {
	acc := s.One()
	base := v
	for k > 0 {
		if k&1 != 0 {
			acc = s.Mul(acc, base)
		}
		k >>= 1
		if k != 0 {
			base = s.Mul(base, base)
		}
	}
	return acc
}

// Derivable reports whether p is still derivable when exactly the variables
// in alive are present (all others deleted). It is Eval under the boolean
// semiring with the characteristic assignment of alive, and is the test
// that drives provenance-based deletion propagation in update exchange.
func (p Poly) Derivable(alive func(Var) bool) bool {
	for _, m := range p.Monomials() {
		ok := true
		for _, vp := range m.Vars {
			if !alive(vp.Var) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
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
		ok := true
		for _, vp := range m.Vars {
			if !alive(vp.Var) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, m)
			keys = append(keys, p.n.keys[i])
		}
	}
	if len(out) == len(p.n.monos) {
		return p
	}
	return newNode(out, keys)
}

// Linearize maps p from N[X] onto the B[X] "witness set" quotient: every
// coefficient becomes 1 and every variable power becomes 1, then duplicate
// monomials merge. The result enumerates the distinct sets of base tuples
// that each support a derivation. Evaluation under any semiring with
// idempotent + and · (boolean, trust, security) is unchanged by
// linearization, which is why the datalog engine can use it to obtain a
// finite fixpoint for recursive mapping programs (see internal/datalog).
//
// The result is cached on the interned node: linearizing the same shared
// polynomial twice costs one atomic load.
func (p Poly) Linearize() Poly {
	if p.IsZero() {
		return p
	}
	if lin := p.n.lin.Load(); lin != nil {
		return Poly{n: lin}
	}
	if p.n.linear() {
		return p
	}
	out := make([]Monomial, len(p.n.monos))
	keys := make([]string, len(p.n.monos))
	for i, m := range p.n.monos {
		nm := Monomial{Coef: 1, Vars: make([]VarPow, len(m.Vars))}
		for j, vp := range m.Vars {
			nm.Vars[j] = VarPow{Var: vp.Var, Pow: 1}
		}
		out[i] = nm
		keys[i] = nm.varKey()
	}
	q := markLinear(canonicalize(out, keys, true))
	p.n.lin.Store(q.n)
	return q
}

// Truncate returns p with at most k monomials, keeping those with the
// lowest degree (shortest derivations) and breaking ties canonically. The
// datalog engine uses it to bound witness-set growth on dense mapping
// graphs, where the number of alternative derivation paths — and hence
// monomials — can grow combinatorially. Short derivations are the ones
// trust conditions and deletion propagation care about; see DESIGN.md §4.
func (p Poly) Truncate(k int) Poly {
	if k <= 0 || p.NumMonomials() <= k {
		return p
	}
	idx := make([]int, len(p.n.monos))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		da, db := p.n.monos[idx[a]].Degree(), p.n.monos[idx[b]].Degree()
		if da != db {
			return da < db
		}
		return idx[a] < idx[b] // canonical order as tiebreak
	})
	keep := idx[:k]
	sort.Ints(keep)
	out := make([]Monomial, 0, k)
	keys := make([]string, 0, k)
	for _, i := range keep {
		out = append(out, p.n.monos[i])
		keys = append(keys, p.n.keys[i])
	}
	return newNode(out, keys)
}

// Subsumes reports whether every monomial of q is present in p (ignoring
// coefficients and powers after linearization). It is the ≤ test of the
// B[X] lattice used by the fixpoint convergence check. Both linearized key
// lists are sorted, so this is a two-pointer containment walk over the
// cached keys — no map is built.
func (p Poly) Subsumes(q Poly) bool {
	if q.IsZero() {
		return true
	}
	if p.n == q.n {
		return true
	}
	lp, lq := p.Linearize(), q.Linearize()
	if lp.n == lq.n {
		return true
	}
	pk, qk := lp.Keys(), lq.Keys()
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

// polySemiring makes Poly itself a Semiring[Poly] — N[X] is the free
// commutative semiring, so datalog evaluation can run directly over it.
type polySemiring struct{}

func (polySemiring) Zero() Poly         { return Zero() }
func (polySemiring) One() Poly          { return One() }
func (polySemiring) Add(a, b Poly) Poly { return a.Add(b) }
func (polySemiring) Mul(a, b Poly) Poly { return a.Mul(b) }
func (polySemiring) Eq(a, b Poly) bool  { return a.Equal(b) }

// PolySemiring returns N[X] as a Semiring[Poly].
func PolySemiring() Semiring[Poly] { return polySemiring{} }
