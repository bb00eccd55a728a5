package provenance

import (
	"math/bits"
	"slices"
	"sync/atomic"
)

// polyNode is the canonical (hash-consed) representation behind a Poly: the
// sorted monomial list and a precomputed structural hash of its token ids.
// Nodes are immutable after construction. Canonical polynomials that recur
// share one node through the intern cache below, making equality on them a
// pointer comparison.
type polyNode struct {
	monos []Monomial
	hash  uint64
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
	h := uint64(0x243f6a8885a308d3)
	for _, m := range monos {
		h = hashMix(h, uint64(len(m)))
		for len(m) >= 2 {
			h = hashMix(h, uint64(m[0])<<32|uint64(m[1]))
			m = m[2:]
		}
		if len(m) == 1 {
			h = hashMix(h, uint64(m[0]))
		}
	}
	return hashMix(h, uint64(len(monos)))
}

func hashMix(h, w uint64) uint64 {
	hi, lo := bits.Mul64(h^w, 0x9e3779b97f4a7c15)
	return hi ^ lo
}

// sameMonos reports structural equality of two canonical monomial lists.
func sameMonos(a, b []Monomial) bool {
	return slices.EqualFunc(a, b, slices.Equal)
}

// newNode returns the canonical polynomial for an already-canonical monomial
// list (sorted by cmpMono, no repeats), consulting the intern cache: if an
// equal node is resident it is shared and the caller's slice is discarded;
// otherwise a new node is built and published to its slot. The caller hands
// over ownership of the slice. An empty list is the zero polynomial (nil
// node).
func newNode(monos []Monomial) Poly {
	return newNodeIn(monos, nil)
}

// newNodeIn is newNode building into spare, an unused zero node, when no
// equal node is resident (nil: allocate one).
func newNodeIn(monos []Monomial, spare *polyNode) Poly {
	if len(monos) == 0 {
		return Poly{}
	}
	h := hashMonos(monos)
	slot := &internCache[h&(internSlots-1)]
	if n := slot.Load(); n != nil && n.hash == h && sameMonos(n.monos, monos) {
		return Poly{n: n}
	}
	n := spare
	if n == nil {
		n = new(polyNode)
	}
	n.monos, n.hash = monos, h
	slot.Store(n)
	return Poly{n: n}
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
	slot := &internCache[p.n.hash&(internSlots-1)]
	if n := slot.Load(); n != nil {
		if n == p.n {
			return p
		}
		if n.hash == p.n.hash && sameMonos(n.monos, p.n.monos) {
			return Poly{n: n}
		}
	}
	slot.Store(p.n)
	return p
}
