// Package provenance implements the semiring provenance framework of Green,
// Karvounarakis, and Tannen ("Provenance Semirings", PODS 2007), which is
// the formal foundation ORCHESTRA uses to trace where exchanged data came
// from. Derived tuples carry polynomials in B[X], the witness-set semiring:
// each monomial is a set of base-tuple tokens that jointly derive the tuple.
// ORCHESTRA reads provenance for trust conditions (which tokens a tuple
// derives from) and for deletion (Derivable): both questions are answered
// by the witness sets themselves.
//
// Inside a polynomial a token is a Token, a dense uint32 id from one
// append-only, process-wide table (token.go); a monomial is a set of ids
// sorted by name, and a node holds its monomials flattened into one
// pointer-free token buffer beside a hash (intern.go). No key string is
// cached per monomial: canonical order is defined on names — a
// monomial's key is each name followed by ';', compared as bytes — and is
// computed id by id, reading names only where two monomials first differ.
// Ids exist only in memory: every codec writes names, so an encoding and
// every order the package reports are the same in every process.
package provenance

import (
	"slices"
	"strings"
	"sync"
)

// Var names a provenance token: in ORCHESTRA, one token is minted per base
// (published) tuple, so a polynomial over Vars describes exactly which
// combinations of published data derive a tuple. Inside a polynomial a Var
// is held as its Token id; Vars are what the API, the codecs and the wire
// carry.
type Var string

// Monomial is one witness: the set of tokens that jointly derive a tuple,
// sorted by name and without repeats. The empty monomial is the constant 1.
// A Monomial read from a polynomial is a view into its node's buffer,
// clipped to its own length: read it, never write it.
type Monomial []Token

// String renders the monomial, e.g. "x·y"; the empty monomial is "1".
func (m Monomial) String() string {
	if len(m) == 0 {
		return "1"
	}
	parts := make([]string, len(m))
	for i, x := range m {
		parts[i] = string(x.Var())
	}
	return strings.Join(parts, "·")
}

// Poly is a provenance polynomial in B[X], the witness-set semiring: a set
// of monomials, each a set of tokens. + is set union and · the pairwise
// union of monomials, so p + p = p and x·x = x.
//
// A Poly is kept in canonical form: monomials sorted by key (each name
// followed by ';', compared as bytes; see cmpMono), no repeats. The order
// is defined on names, never on Token ids, so it is the same in every
// process. The zero polynomial is the zero value. Poly values are
// immutable; operations return new polynomials.
//
// Every polynomial points at a canonical node — its monomials flattened
// into one token buffer, and a precomputed structural hash over their ids —
// built through the bounded hash-consing cache in intern.go: recurring
// polynomials share one allocation, so equality on them is a pointer
// comparison (with a hash-guarded comparison of the buffers when two equal
// values missed each other in the cache). No key string is stored: Add,
// Subsumes and the witness kernel merge the sorted monomial lists id by id,
// reading names only where two monomials first differ. Results are built
// from views in pooled scratch space and copied into a node buffer only
// when the cache holds no equal node.
type Poly struct {
	n *polyNode
}

// Zero returns the zero polynomial (no derivations).
func Zero() Poly { return Poly{} }

// One returns the constant polynomial 1.
func One() Poly { return polyOne }

// polyOne is the interned constant 1 — the most common annotation in the
// system (every set-semantics fact), shared process-wide.
var polyOne = newNode([]Monomial{{}}).Intern()

// NewVar returns the polynomial consisting of the single variable x.
func NewVar(x Var) Poly { return NewToken(Mint(x)) }

// NewToken returns the polynomial consisting of the single token t.
func NewToken(t Token) Poly { return newNode([]Monomial{{t}}) }

// IsZero reports whether p is the zero polynomial.
func (p Poly) IsZero() bool { return p.n == nil }

// IsOne reports whether p is the constant 1.
func (p Poly) IsOne() bool {
	return p.n != nil && len(p.n.buf) == 2 && p.n.buf[0] == 1
}

// NumMonomials returns the number of monomials (distinct witnesses).
func (p Poly) NumMonomials() int {
	if p.n == nil {
		return 0
	}
	return p.n.num()
}

// Monomial returns monomial i in canonical order, 0 ≤ i < NumMonomials():
// a view into the polynomial's buffer that must not be modified.
func (p Poly) Monomial(i int) Monomial { return p.n.mono(i) }

// Tokens returns the tokens of every monomial, monomial after monomial in
// canonical order — each token as often as monomials hold it. It is a view
// into the polynomial's buffer that must not be modified.
func (p Poly) Tokens() []Token {
	if p.n == nil {
		return nil
	}
	return p.n.tokens()
}

// Hash returns the precomputed structural hash of the polynomial. It is a
// function of the token ids, so it is meaningful only within one process.
func (p Poly) Hash() uint64 {
	if p.n == nil {
		return 0
	}
	return p.n.hash
}

// Vars returns the sorted set of variables mentioned in p.
func (p Poly) Vars() []Var {
	set := map[Token]bool{}
	for _, x := range p.Tokens() {
		set[x] = true
	}
	out := make([]Var, 0, len(set))
	for x := range set {
		out = append(out, x.Var())
	}
	slices.Sort(out)
	return out
}

// FromMonomials builds the polynomial whose witnesses are monos: each
// monomial's tokens are sorted by name and deduplicated, then repeated
// monomials merge. The input is only read: the polynomial owns a copy.
func FromMonomials(monos []Monomial) Poly {
	s := getScratch()
	defer s.put()
	size := 0
	for _, m := range monos {
		size += len(m)
	}
	s.toks = slices.Grow(s.toks, size)
	for _, m := range monos {
		start := len(s.toks)
		s.toks = append(s.toks, m...)
		run := s.toks[start:]
		slices.SortFunc(run, cmpName)
		run = slices.Compact(run)
		s.toks = s.toks[:start+len(run)]
		s.monos = append(s.monos, run[:len(run):len(run)])
	}
	return canonicalize(s.monos)
}

// canonicalize sorts a scratch monomial list into canonical order, drops
// repeats, and interns the result.
func canonicalize(monos []Monomial) Poly {
	slices.SortFunc(monos, cmpMono)
	return newNode(slices.CompactFunc(monos, slices.Equal))
}

// strictlySorted reports whether monos is already canonical: strictly
// increasing in cmpMono order.
func strictlySorted(monos []Monomial) bool {
	for i := 1; i < len(monos); i++ {
		if cmpMono(monos[i-1], monos[i]) >= 0 {
			return false
		}
	}
	return true
}

// scratch is the pooled working space of the operations that build a
// polynomial: views of the survivors (into the operands' buffers or into
// toks), and the token runs of new monomials. Nothing in it outlives the
// operation — newNode copies what a node keeps.
type scratch struct {
	monos, more []Monomial
	toks        []Token
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// put empties s — dropping its views, so the pool pins no operand — and
// returns it to the pool.
func (s *scratch) put() {
	clear(s.monos)
	clear(s.more)
	s.monos, s.more, s.toks = s.monos[:0], s.more[:0], s.toks[:0]
	scratchPool.Put(s)
}

// Add returns p + q, the union of the two witness sets: one merge of the
// two sorted monomial lists that returns an operand unchanged when it
// already contains the other.
func (p Poly) Add(q Poly) Poly {
	merged, _, _, _ := mergeWitness(p, q, 0, false)
	return merged
}

// Mul returns p · q: each pair of monomials contributes the union of their
// tokens, merged in name order into scratch, and the pairs are then sorted
// and deduplicated. When one operand is a single monomial the products come
// out in canonical order more often than not, and are only sorted if they
// do not; so a product of two single monomials is one union, never sorted.
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
	pn, qn := p.n, q.n
	s := getScratch()
	defer s.put()
	s.toks = slices.Grow(s.toks, len(pn.tokens())*qn.num()+len(qn.tokens())*pn.num())
	for i := range pn.num() {
		a := pn.mono(i)
		for j := range qn.num() {
			start := len(s.toks)
			s.toks = union(s.toks, a, qn.mono(j))
			s.monos = append(s.monos, s.toks[start:len(s.toks):len(s.toks)])
		}
	}
	if (pn.num() == 1 || qn.num() == 1) && strictlySorted(s.monos) {
		return newNode(s.monos)
	}
	return canonicalize(s.monos)
}

// union appends a ∪ b to dst in name order.
func union(dst []Token, a, b Monomial) []Token {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := cmpName(a[i], b[j]); {
		case c < 0:
			dst = append(dst, a[i])
			i++
		case c > 0:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return append(append(dst, a[i:]...), b[j:]...)
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
	return slices.Equal(p.n.buf, q.n.buf)
}

// String renders the polynomial, e.g. "x·y + z".
func (p Poly) String() string {
	if p.IsZero() {
		return "0"
	}
	parts := make([]string, p.n.num())
	for i := range parts {
		parts[i] = p.n.mono(i).String()
	}
	return strings.Join(parts, " + ")
}

// Derivable reports whether p is still derivable when exactly the variables
// in alive are present (all others deleted): some monomial has every token
// alive. It is the test that drives provenance-based deletion propagation
// in update exchange.
func (p Poly) Derivable(alive func(Var) bool) bool {
	live := func(t Token) bool { return alive(t.Var()) }
	for i := range p.NumMonomials() {
		if allAlive(p.n.mono(i), live) {
			return true
		}
	}
	return false
}

func allAlive(m Monomial, alive func(Token) bool) bool {
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
	return p.RestrictTokens(func(t Token) bool { return alive(t.Var()) })
}

// RestrictTokens is Restrict with liveness decided on token ids.
func (p Poly) RestrictTokens(alive func(Token) bool) Poly {
	return p.Filter(func(m Monomial) bool { return allAlive(m, alive) })
}

// Filter returns the polynomial of the monomials of p that keep accepts,
// calling keep once per monomial in canonical order. It returns p itself
// when keep accepts them all.
func (p Poly) Filter(keep func(Monomial) bool) Poly {
	if p.IsZero() {
		return p
	}
	s := getScratch()
	defer s.put()
	for i := range p.n.num() {
		if m := p.n.mono(i); keep(m) {
			s.monos = append(s.monos, m)
		}
	}
	if len(s.monos) == p.n.num() {
		return p
	}
	return newNode(s.monos)
}

// Subsumes reports whether every monomial of q is present in p: the ≤ test
// of the B[X] lattice used by the fixpoint convergence check. Both lists
// are sorted, so this is a two-pointer containment walk — no map is built.
func (p Poly) Subsumes(q Poly) bool {
	if q.IsZero() || p.n == q.n {
		return true
	}
	np, nq := p.NumMonomials(), q.n.num()
	if nq > np {
		return false
	}
	i := 0
	for j := range nq {
		m := q.n.mono(j)
		for i < np && cmpMono(p.n.mono(i), m) < 0 {
			i++
		}
		if i == np || !slices.Equal(p.n.mono(i), m) {
			return false
		}
		i++
	}
	return true
}
