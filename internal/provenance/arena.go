package provenance

import (
	"errors"
	"fmt"
)

// ErrNotCanonical reports a monomial list Arena.Poly refuses: one that no
// polynomial could have listed.
var ErrNotCanonical = errors.New("provenance: monomial list is not in canonical form")

// Arena carves the storage of decoded polynomials — node buffers and nodes
// — from shared chunks. A snapshot or checkpoint decoder builds thousands
// of small polynomials that then live together in one table, so one
// allocation per chunk replaces two per polynomial, and the collector
// marks a few large objects instead of many small ones. A decoder writes
// each polynomial straight into its buffer's layout (see polyNode):
//
//	a.Begin(n)
//	for each of the n monomials { a.Add(t) for each token; a.End() }
//	p, err := a.Poly()
//
// The zero value is ready to use; an Arena belongs to one goroutine.
type Arena struct {
	toks  []Token    // chunk holding the buffer being written at [start:]
	start int        // where the open polynomial's buffer begins in toks
	n, i  int        // its monomial count, and how many are closed
	nodes []polyNode // chunk of nodes
}

// Arena chunks grow by doubling from 64 elements up to these limits (or to
// what one polynomial needs, if more), so a short decode stays small and a
// long one amortizes.
const (
	arenaTokenLimit = 8192
	arenaNodeLimit  = 1024
)

// Begin opens a polynomial of n monomials, discarding one opened before and
// never finished.
func (a *Arena) Begin(n int) {
	a.toks = a.toks[:a.start]
	a.n, a.i = n, 0
	a.reserve(1 + n)
	a.toks = a.toks[:a.start+1+n]
	a.toks[a.start] = Token(n)
}

// reserve makes room for k more tokens of the open buffer, moving it to a
// new chunk if the current one is full.
func (a *Arena) reserve(k int) {
	if k <= cap(a.toks)-len(a.toks) {
		return
	}
	open := a.toks[a.start:]
	c := make([]Token, 0, max(min(max(2*cap(a.toks), 64), arenaTokenLimit), 2*(len(open)+k)))
	a.toks, a.start = append(c, open...), 0
}

// Add appends token t to the open monomial.
func (a *Arena) Add(t Token) {
	if len(a.toks) == cap(a.toks) {
		a.reserve(1)
	}
	a.toks = append(a.toks, t)
}

// End closes the open monomial.
func (a *Arena) End() {
	a.toks[a.start+1+a.i] = Token(len(a.toks) - a.start)
	a.i++
}

// Poly finishes the open polynomial, whose n monomials must be closed: every
// monomial's names strictly increasing, and monomials strictly increasing
// in canonical (key) order — exactly what Monomial(i) reports and the
// codecs write, so a decoder skips the sort-and-merge normalization
// FromMonomials does. The invariant is checked, not assumed: input that
// violates it is refused with ErrNotCanonical, so a corrupted list never
// produces a node, and a decoder that accepts a list can re-encode it byte
// for byte. If an equal node is resident in the intern cache, it is
// returned and the buffer's room goes back to the arena.
func (a *Arena) Poly() (Poly, error) {
	if a.i != a.n {
		panic("provenance: Arena.Poly before every monomial was closed")
	}
	// A buffer not kept — zero, refused, or resident already — is
	// overwritten by the next Begin.
	if a.n == 0 {
		return Poly{}, nil
	}
	buf := a.toks[a.start:len(a.toks):len(a.toks)]
	n := polyNode{buf: buf}
	for i := range a.n {
		m := n.mono(i)
		for j := 1; j < len(m); j++ {
			if cmpName(m[j-1], m[j]) >= 0 {
				return Poly{}, fmt.Errorf("%w: variables must strictly increase", ErrNotCanonical)
			}
		}
		if i > 0 && cmpMono(n.mono(i-1), m) >= 0 {
			return Poly{}, fmt.Errorf("%w: monomials must strictly increase by key", ErrNotCanonical)
		}
	}
	n.hash = hashNode(&n)
	if len(a.nodes) == cap(a.nodes) {
		a.nodes = make([]polyNode, 0, min(max(2*cap(a.nodes), 64), arenaNodeLimit))
	}
	a.nodes = append(a.nodes, n)
	node := &a.nodes[len(a.nodes)-1]
	if r := internNode(node); r != node {
		a.nodes = a.nodes[:len(a.nodes)-1]
		return Poly{n: r}, nil
	}
	a.start = len(a.toks)
	return Poly{n: node}, nil
}
