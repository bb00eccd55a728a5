package provenance

import (
	"math"
	"sort"
)

// This file is the witness-set kernel: the fold of a derived annotation into
// a stored one under the MaxMonomials cut, which is also Poly.Add when no
// cut applies. A node's monomial list is the sorted set of its witnesses, so
// the union of two nodes is a merge of two sorted lists, compared id by id
// (cmpMono). The survivors are gathered as views into the two operands'
// buffers and copied once, into the result's buffer, only when the intern
// cache holds no equal node; no key is built.

// witnessWalk enumerates the union of two nodes (either may be nil) in
// canonical order — the monomial order of their sum — reporting for each
// monomial whether only b carries it. A monomial both carry yields a's.
type witnessWalk struct {
	a, b *polyNode
	i, j int
}

func (w *witnessWalk) next() (m Monomial, onlyB, ok bool) {
	inA := w.a != nil && w.i < w.a.num()
	inB := w.b != nil && w.j < w.b.num()
	switch {
	case inA && inB:
		ma, mb := w.a.mono(w.i), w.b.mono(w.j)
		switch c := cmpMono(ma, mb); {
		case c < 0:
			w.i++
			return ma, false, true
		case c > 0:
			w.j++
			return mb, true, true
		}
		w.i++
		w.j++
		return ma, false, true
	case inA:
		w.i++
		return w.a.mono(w.i - 1), false, true
	case inB:
		w.j++
		return w.b.mono(w.j - 1), true, true
	}
	return nil, false, false
}

// witnessCut is the cut's choice over a union whose degrees are known: every
// monomial of degree below deg survives, and of those of degree deg exactly
// the first tie in canonical (key) order — the lowest-degree k, ties broken
// canonically. keeps must see the union in canonical order.
type witnessCut struct {
	deg, tie, taken int
}

func (c *witnessCut) keeps(m Monomial) bool {
	switch d := len(m); {
	case d < c.deg:
		return true
	case d == c.deg && c.taken < c.tie:
		c.taken++
		return true
	}
	return false
}

// MergeWitness folds a derived annotation into a stored witness set: it is
// the fixpoint engine's one merge, and the one place the MaxMonomials bound
// k truncates an annotation. Its result is defined on sets:
//
//	union  = stored ∪ derived
//	merged = the k monomials of union of lowest degree, ties broken in
//	         canonical (key) order
//	         (all of union when k ≤ 0 or |union| ≤ k)
//	fresh  = merged \ stored
//
// with changed = merged ≠ stored, merged = stored and fresh = 0 when nothing
// changed, and truncated reporting that the cut dropped at least one
// monomial (a derivation already in stored never reaches the cut).
//
// The merge is one pass over the two monomial lists that finds the new monomials
// and builds a degree histogram of the union, from which the cut follows. It
// allocates nothing when no new monomial survives the cut (the
// re-derivation of a known or of a too-long witness); otherwise it gathers
// the survivors in pooled scratch and builds at most the two result nodes,
// each a node and its buffer, none when the intern cache holds them.
func MergeWitness(stored, derived Poly, k int) (merged, fresh Poly, changed, truncated bool) {
	return mergeWitness(stored, derived, k, true)
}

// mergeWitness is MergeWitness; without wantFresh it leaves the new part
// unbuilt (fresh is then meaningless).
func mergeWitness(stored, derived Poly, k int, wantFresh bool) (merged, fresh Poly, changed, truncated bool) {
	s, d := stored.n, derived.n
	// Pass 1: count the union and its new monomials, and histogram the
	// union's degrees; the last bucket holds every degree from deepDegree up.
	var hist [deepDegree + 1]int32
	total, added := 0, 0
	w := witnessWalk{a: s, b: d}
	for m, onlyD, ok := w.next(); ok; m, onlyD, ok = w.next() {
		total++
		if onlyD {
			added++
		}
		hist[min(len(m), deepDegree)]++
	}
	if added == 0 {
		return stored, Poly{}, false, false
	}
	truncated = k > 0 && total > k
	cut := witnessCut{deg: math.MaxInt}
	if truncated {
		below := 0
		for deg, c := range hist {
			if below+int(c) >= k {
				cut = witnessCut{deg: deg, tie: k - below}
				break
			}
			below += int(c)
		}
		if cut.deg == deepDegree {
			cut = deepCut(s, d, cut.tie)
		}
	}
	// Pass 2: does any new monomial survive the cut, or does the cut drop a
	// stored one? Neither means stored is already the answer.
	keptNew, keptOld := added, total-added
	if truncated {
		keptNew, keptOld = 0, 0
		w, c := witnessWalk{a: s, b: d}, cut
		for m, onlyD, ok := w.next(); ok; m, onlyD, ok = w.next() {
			if !c.keeps(m) {
				continue
			}
			if onlyD {
				keptNew++
			} else {
				keptOld++
			}
		}
		if keptNew == 0 && keptOld == stored.NumMonomials() {
			return stored, Poly{}, false, true
		}
	}
	// Pass 3: build the survivors, reusing the derived node whole when it
	// already is the union or the new part.
	dn := derived.NumMonomials()
	reuseMerged := !truncated && total == dn
	reuseFresh := keptNew == dn
	buildFresh := wantFresh && !reuseFresh && s != nil
	var sc *scratch
	if !reuseMerged || buildFresh {
		sc = getScratch()
		defer sc.put()
	}
	w = witnessWalk{a: s, b: d}
	for m, onlyD, ok := w.next(); ok; m, onlyD, ok = w.next() {
		if !cut.keeps(m) {
			continue
		}
		if !reuseMerged {
			sc.monos = append(sc.monos, m)
		}
		if onlyD && buildFresh {
			sc.more = append(sc.more, m)
		}
	}
	merged, fresh = derived, derived
	if !reuseMerged {
		merged = newNode(sc.monos)
	}
	switch {
	case s == nil:
		// Nothing was stored: the new part is the whole result.
		fresh = merged
	case buildFresh:
		fresh = newNode(sc.more)
	}
	return merged, fresh, true, truncated
}

// deepDegree is the degree from which mergeWitness's histogram lumps
// monomials into one bucket.
const deepDegree = 63

// deepCut places a cut that keeps r of the union's monomials of deepDegree
// or more tokens, which the histogram lumps into one bucket: it sorts their
// exact degrees.
func deepCut(s, d *polyNode, r int) witnessCut {
	var degs []int
	w := witnessWalk{a: s, b: d}
	for m, _, ok := w.next(); ok; m, _, ok = w.next() {
		if len(m) >= deepDegree {
			degs = append(degs, len(m))
		}
	}
	sort.Ints(degs)
	deg := degs[r-1]
	return witnessCut{deg: deg, tie: r - sort.SearchInts(degs, deg)}
}
