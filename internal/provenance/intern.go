package provenance

import (
	"math/bits"
	"slices"
	"sync/atomic"
)

// polyNode is the canonical (hash-consed) representation behind a Poly: the
// sorted monomial list, flattened into one token buffer, and a precomputed
// structural hash of its token ids. buf is
//
//	[n, end₀, …, endₙ₋₁, tokens…]
//
// — the monomial count, then each monomial's end offset into buf, then the
// monomials' tokens back to back, monomial 0 starting at 1+n and monomial i
// at endᵢ₋₁. The buffer holds no pointer, so it is one noscan allocation
// and a node holds one pointer however many monomials it has; a Monomial
// handed out is a capacity-clipped view into it. Two canonical nodes are
// equal exactly when their buffers are. Nodes are immutable after
// construction. Canonical polynomials that recur share one node through
// the intern cache below, making equality on them a pointer comparison.
type polyNode struct {
	hash uint64
	buf  []Token
}

// num returns the number of monomials.
func (n *polyNode) num() int { return int(n.buf[0]) }

// mono returns monomial i, a view into buf that cannot grow into its
// neighbour.
func (n *polyNode) mono(i int) Monomial {
	lo, hi := int(n.buf[i]), int(n.buf[1+i])
	if i == 0 {
		lo++ // buf[0] is n and monomial 0 starts at 1+n
	}
	return Monomial(n.buf[lo:hi:hi])
}

// tokens returns every monomial's tokens, back to back.
func (n *polyNode) tokens() []Token { return n.buf[1+n.num() : len(n.buf) : len(n.buf)] }

// holds reports whether n's monomial list is monos.
func (n *polyNode) holds(monos []Monomial) bool {
	if n.num() != len(monos) {
		return false
	}
	for i, m := range monos {
		if !slices.Equal(n.mono(i), m) {
			return false
		}
	}
	return true
}

// flatten lays monos out in a new node buffer.
func flatten(monos []Monomial) []Token {
	size := 1 + len(monos)
	for _, m := range monos {
		size += len(m)
	}
	buf := make([]Token, 1+len(monos), size)
	buf[0] = Token(len(monos))
	for i, m := range monos {
		buf = append(buf, m...)
		buf[1+i] = Token(len(buf))
	}
	return buf
}

// The intern cache is a fixed-size, direct-mapped, lock-free table of
// canonical nodes indexed by structural hash. Interning is *approximate by
// design*: a recurring polynomial almost always finds its slot occupied by
// an equal node and shares that one allocation, while a hash-slot conflict
// simply evicts the older resident. This bounds the cache's memory and GC
// root set — a strong exhaustive table would pin every polynomial ever
// built, and a weak table pays per-node registration costs that dwarf the
// arithmetic on transient values. Correctness never depends on sharing:
// Equal falls back to a hash-guarded structural comparison when two equal
// polynomials missed each other in the cache.
//
// internSlots must be a power of two.
const internSlots = 1 << 15

var internCache [internSlots]atomic.Pointer[polyNode]

// hashMonos hashes the canonical monomial list — each monomial's length
// and token ids, two ids to a machine word — folding every word in by one
// 64×64→128-bit multiply whose halves are xored (the wyhash mixer). The
// hash only picks intern slots and pre-screens Equal, so it must be a
// function of the monomial list and spread well over its low bits; it is
// never persisted (ids differ between processes), and a collision costs
// only a structural comparison.
func hashMonos(monos []Monomial) uint64 {
	h := uint64(hashSeed)
	for _, m := range monos {
		h = hashMono(h, m)
	}
	return hashMix(h, uint64(len(monos)))
}

// hashNode is hashMonos of n's monomial list, read from its buffer.
func hashNode(n *polyNode) uint64 {
	h := uint64(hashSeed)
	for i := range n.num() {
		h = hashMono(h, n.mono(i))
	}
	return hashMix(h, uint64(n.num()))
}

const hashSeed = 0x243f6a8885a308d3

// hashMono folds one monomial into h.
func hashMono(h uint64, m Monomial) uint64 {
	h = hashMix(h, uint64(len(m)))
	for len(m) >= 2 {
		h = hashMix(h, uint64(m[0])<<32|uint64(m[1]))
		m = m[2:]
	}
	if len(m) == 1 {
		h = hashMix(h, uint64(m[0]))
	}
	return h
}

func hashMix(h, w uint64) uint64 {
	hi, lo := bits.Mul64(h^w, 0x9e3779b97f4a7c15)
	return hi ^ lo
}

// newNode returns the canonical polynomial for an already-canonical list of
// monomial views (sorted by cmpMono, no repeats), consulting the intern
// cache: if an equal node is resident it is shared; otherwise the monomials
// are copied into a new node's buffer, which is published to its slot. The
// views are only read, so they may point into scratch space or into other
// nodes. An empty list is the zero polynomial (nil node).
func newNode(monos []Monomial) Poly {
	if len(monos) == 0 {
		return Poly{}
	}
	h := hashMonos(monos)
	slot := &internCache[h&(internSlots-1)]
	if n := slot.Load(); n != nil && n.hash == h && n.holds(monos) {
		return Poly{n: n}
	}
	n := &polyNode{hash: h, buf: flatten(monos)}
	slot.Store(n)
	return Poly{n: n}
}

// internNode returns the resident node equal to n, or installs n (already
// hashed) and returns it.
func internNode(n *polyNode) *polyNode {
	slot := &internCache[n.hash&(internSlots-1)]
	if r := slot.Load(); r != nil {
		if r == n || (r.hash == n.hash && slices.Equal(r.buf, n.buf)) {
			return r
		}
	}
	slot.Store(n)
	return n
}

// Intern re-canonicalizes p against the intern cache: if an equal node is
// resident, that shared allocation is returned; otherwise p installs its
// own node and is returned unchanged. Construction already interns, so this
// is only useful to re-converge values built concurrently on different
// goroutines before storing them long-term. Idempotent and lock-free.
func (p Poly) Intern() Poly {
	if p.n == nil {
		return p
	}
	return Poly{n: internNode(p.n)}
}
