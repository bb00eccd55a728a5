package provenance

import (
	"errors"
	"fmt"
)

// ErrNotCanonical reports a monomial list Arena.Poly refuses: one that
// Monomials() of no polynomial could have returned.
var ErrNotCanonical = errors.New("provenance: monomial list is not in canonical form")

// Arena carves the storage of decoded polynomials — monomial lists, token
// ids and nodes — from shared chunks. A snapshot or
// checkpoint decoder builds thousands of small polynomials that then live
// together in one table, so one allocation per chunk replaces several per
// polynomial, and the collector marks a few large objects instead of many
// small ones. The zero value is ready to use; an Arena belongs to one
// goroutine.
type Arena struct {
	monos []Monomial
	vars  []Token
	nodes []polyNode
}

// carve returns a zero-length slice with capacity n from *chunk. A full
// chunk is replaced by one twice its size, from 64 up to limit elements (or
// n, if larger), so a short decode stays small and a long one amortizes.
func carve[T any](chunk *[]T, n, limit int) []T {
	c := *chunk
	if n > cap(c)-len(c) {
		c = make([]T, 0, max(min(max(2*cap(c), 64), limit), n))
	}
	*chunk = c[:len(c)+n]
	return c[len(c) : len(c) : len(c)+n]
}

// Monomials returns room for n monomials, to fill by append and hand to Poly.
func (a *Arena) Monomials(n int) []Monomial { return carve(&a.monos, n, 4096) }

// Tokens returns room for the n tokens of one monomial.
func (a *Arena) Tokens(n int) []Token { return carve(&a.vars, n, 8192) }

// Poly builds the polynomial whose canonical monomial list is monos (from
// Monomials, each filled from Tokens): every monomial's names strictly
// increasing, and monomials strictly increasing in canonical (key) order —
// exactly what Monomials()
// reports and the codecs write, so a decoder skips the sort-and-merge
// normalization FromMonomials does. Ownership of monos transfers to the
// polynomial. The invariant is checked, not assumed: input that violates
// it is refused with ErrNotCanonical, so a corrupted list never produces a
// node, and a decoder that accepts a list can re-encode it byte for byte.
func (a *Arena) Poly(monos []Monomial) (Poly, error) {
	if len(monos) == 0 {
		return Poly{}, nil
	}
	for i, m := range monos {
		for j := 1; j < len(m); j++ {
			if cmpName(m[j-1], m[j]) >= 0 {
				return Poly{}, fmt.Errorf("%w: variables must strictly increase", ErrNotCanonical)
			}
		}
		if i > 0 && cmpMono(monos[i-1], m) >= 0 {
			return Poly{}, fmt.Errorf("%w: monomials must strictly increase by key", ErrNotCanonical)
		}
	}
	spare := &carve(&a.nodes, 1, 1024)[:1][0]
	p := newNodeIn(monos, spare)
	if p.n != spare {
		// An equal node was resident: the reserved one goes back.
		a.nodes = a.nodes[:len(a.nodes)-1]
	}
	return p, nil
}
