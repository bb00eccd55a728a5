package provenance

import (
	"errors"
	"fmt"
	"strings"
)

// ErrNotCanonical reports a monomial list Arena.Poly refuses: one that
// Monomials() of no polynomial could have returned.
var ErrNotCanonical = errors.New("provenance: monomial list is not in canonical form")

// Arena carves the storage of decoded polynomials — monomial lists,
// variables, cached keys and nodes — from shared chunks. A snapshot or
// checkpoint decoder builds thousands of small polynomials that then live
// together in one table, so one allocation per chunk replaces several per
// polynomial, and the collector marks a few large objects instead of many
// small ones. The zero value is ready to use; an Arena belongs to one
// goroutine.
type Arena struct {
	monos []Monomial
	vars  []Var
	keys  []string
	nodes []polyNode
	text  strings.Builder
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

// Vars returns room for the n variables of one monomial.
func (a *Arena) Vars(n int) []Var { return carve(&a.vars, n, 8192) }

// reserveText makes room for n more bytes without moving what the arena's
// strings already share: a full builder is replaced, never grown.
func (a *Arena) reserveText(n int) {
	if a.text.Cap()-a.text.Len() < n {
		size := min(max(2*a.text.Cap(), 1<<10), 64<<10)
		a.text = strings.Builder{}
		a.text.Grow(max(size, n))
	}
}

// Poly builds the polynomial whose canonical monomial list is monos (from
// Monomials, each filled from Vars): every monomial's variables strictly
// increasing, and strictly increasing keys — exactly what Monomials()
// reports and the codecs write, so a decoder skips the sort-and-merge
// normalization FromMonomials does. Ownership of monos transfers to the
// polynomial. The invariant is checked, not assumed: input that violates
// it is refused with ErrNotCanonical, so a corrupted list never produces a
// node, and a decoder that accepts a list can re-encode it byte for byte.
func (a *Arena) Poly(monos []Monomial) (Poly, error) {
	if len(monos) == 0 {
		return Poly{}, nil
	}
	keys := carve(&a.keys, len(monos), 4096)
	for i, m := range monos {
		for j := 1; j < len(m); j++ {
			if m[j-1] >= m[j] {
				return Poly{}, fmt.Errorf("%w: variables must strictly increase", ErrNotCanonical)
			}
		}
		a.reserveText(varKeyLen(m))
		start := a.text.Len()
		writeVarKey(&a.text, m)
		keys = append(keys, a.text.String()[start:])
		if i > 0 && keys[i-1] >= keys[i] {
			return Poly{}, fmt.Errorf("%w: monomials must strictly increase by key", ErrNotCanonical)
		}
	}
	spare := &carve(&a.nodes, 1, 1024)[:1][0]
	p := newNodeIn(monos, keys, spare)
	if p.n != spare {
		// An equal node was resident: the reserved one goes back.
		a.nodes = a.nodes[:len(a.nodes)-1]
	}
	return p, nil
}
