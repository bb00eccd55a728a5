package provenance

import (
	"math/bits"
	"slices"
	"sync/atomic"
)

// polyNode is the canonical (hash-consed) representation behind a Poly: the
// sorted monomial list, the cached key of each monomial, and a precomputed
// structural hash. Nodes are immutable after construction. Canonical
// polynomials that recur share one node through the intern cache below,
// making equality on them a pointer comparison.
type polyNode struct {
	monos []Monomial
	keys  []string // key per monomial, aligned with monos
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

// hashMonos hashes the canonical monomial list — each monomial's key — a
// machine word at a time: every word is folded in by one 64×64→128-bit
// multiply whose halves are xored (the wyhash mixer). The hash
// only picks intern slots and pre-screens Equal, so it must be a function of
// the monomial list and spread well over its low bits; it is never
// persisted, and a collision costs only a structural comparison.
func hashMonos(keys []string) uint64 {
	h := uint64(0x243f6a8885a308d3)
	for _, k := range keys {
		h = hashString(h, k)
	}
	return hashMix(h, uint64(len(keys)))
}

// hashString folds s into h eight bytes per step. The last, partial word is
// read as two overlapping 4-byte loads (or three single bytes below four),
// and the length rides along so keys that differ only in trailing zero
// bytes hash apart.
func hashString(h uint64, s string) uint64 {
	n := len(s)
	for len(s) > 8 {
		h = hashMix(h, load64(s))
		s = s[8:]
	}
	var w uint64
	switch {
	case len(s) >= 4:
		w = uint64(load32(s))<<32 | uint64(load32(s[len(s)-4:]))
	case len(s) > 0:
		w = uint64(s[0])<<16 | uint64(s[len(s)>>1])<<8 | uint64(s[len(s)-1])
	}
	return hashMix(h^uint64(n), w)
}

func hashMix(h, w uint64) uint64 {
	hi, lo := bits.Mul64(h^w, 0x9e3779b97f4a7c15)
	return hi ^ lo
}

func load64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

func load32(s string) uint32 {
	_ = s[3]
	return uint32(s[0]) | uint32(s[1])<<8 | uint32(s[2])<<16 | uint32(s[3])<<24
}

// sameMonos reports structural equality of two canonical monomial lists.
// Keys alone are not decisive (a variable name holding ';' can collide with
// two variables), so variable lists are compared directly.
func sameMonos(a, b []Monomial) bool {
	return slices.EqualFunc(a, b, slices.Equal)
}

// newNode returns the canonical polynomial for an already-canonical monomial
// list (sorted by key, no repeats), consulting the intern cache: if an
// equal node is resident it is shared and the caller's slices are
// discarded; otherwise a new node is built and published to its slot. The
// caller hands over ownership of both slices. An empty list is the zero
// polynomial (nil node).
func newNode(monos []Monomial, keys []string) Poly {
	return newNodeIn(monos, keys, nil)
}

// newNodeIn is newNode building into spare, an unused zero node, when no
// equal node is resident (nil: allocate one).
func newNodeIn(monos []Monomial, keys []string, spare *polyNode) Poly {
	if len(monos) == 0 {
		return Poly{}
	}
	h := hashMonos(keys)
	slot := &internCache[h&(internSlots-1)]
	if n := slot.Load(); n != nil && n.hash == h && sameMonos(n.monos, monos) {
		return Poly{n: n}
	}
	n := spare
	if n == nil {
		n = new(polyNode)
	}
	n.monos, n.keys, n.hash = monos, keys, h
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

// InternTableSize returns the number of resident interned polynomials — an
// observability hook for tests and memory diagnostics.
func InternTableSize() int {
	n := 0
	for i := range internCache {
		if internCache[i].Load() != nil {
			n++
		}
	}
	return n
}

// monoSorter sorts a raw monomial list and its aligned keys by key; it is
// the canonical order of Poly (identical to the sort.Strings order the
// map-based normalizer used).
type monoSorter struct {
	monos []Monomial
	keys  []string
}

func (s *monoSorter) Len() int           { return len(s.monos) }
func (s *monoSorter) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *monoSorter) Swap(i, j int) {
	s.monos[i], s.monos[j] = s.monos[j], s.monos[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}
