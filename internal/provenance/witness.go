package provenance

import (
	"math"
	"strings"
)

// This file is the witness-mode (B[X]) kernel: the two operations the
// fixpoint engine applies to every derived annotation — multiply the
// annotations of a rule body, and fold the product into the stored witness
// set under the MaxMonomials cut — computed directly on linear canonical
// monomial lists instead of through N[X] intermediates. A linear node (every
// coefficient and power 1) is its own linearization, and its key list is the
// sorted set of its witnesses, so the B[X] sum of two such nodes is a merge
// of two sorted key lists, and a monomial that survives into a result is
// carried over together with its key: no variable list is copied and no key
// string is rebuilt.

// linear reports whether n is its own linearization: every coefficient and
// every power is 1. The zero polynomial is linear. A positive answer is
// memoized in n.lin, where Linearize would put it.
func (n *polyNode) linear() bool {
	if n == nil {
		return true
	}
	if l := n.lin.Load(); l != nil {
		return l == n
	}
	for _, m := range n.monos {
		if m.Coef != 1 {
			return false
		}
		for _, vp := range m.Vars {
			if vp.Pow != 1 {
				return false
			}
		}
	}
	n.lin.Store(n)
	return true
}

// markLinear records that p, which the caller built linear, is its own
// linearization.
func markLinear(p Poly) Poly {
	if p.n != nil && p.n.lin.Load() == nil {
		p.n.lin.Store(p.n)
	}
	return p
}

// witnessWalk enumerates the union of two linear nodes (either may be nil)
// in key order — the monomial order of their B[X] sum — reporting for each
// monomial whether only b carries it. A key both carry yields a's monomial.
type witnessWalk struct {
	a, b *polyNode
	i, j int
}

func (w *witnessWalk) next() (m *Monomial, key string, onlyB, ok bool) {
	inA := w.a != nil && w.i < len(w.a.keys)
	inB := w.b != nil && w.j < len(w.b.keys)
	switch {
	case inA && inB:
		ka, kb := w.a.keys[w.i], w.b.keys[w.j]
		switch c := strings.Compare(ka, kb); {
		case c < 0:
			w.i++
			return &w.a.monos[w.i-1], ka, false, true
		case c > 0:
			w.j++
			return &w.b.monos[w.j-1], kb, true, true
		}
		w.i++
		w.j++
		return &w.a.monos[w.i-1], ka, false, true
	case inA:
		w.i++
		return &w.a.monos[w.i-1], w.a.keys[w.i-1], false, true
	case inB:
		w.j++
		return &w.b.monos[w.j-1], w.b.keys[w.j-1], true, true
	}
	return nil, "", false, false
}

// witnessCut is Truncate(k)'s choice over a union whose degree histogram is
// known: every monomial of degree below deg survives, and of those of degree
// deg exactly the first tie in canonical (key) order — the lowest-degree k,
// ties broken canonically. keeps must see the union in key order.
type witnessCut struct {
	deg, tie, taken int
}

func (c *witnessCut) keeps(m *Monomial) bool {
	switch d := len(m.Vars); {
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
// k truncates an annotation. Its results are exactly those of
//
//	if stored.Subsumes(derived) { unchanged }
//	merged = stored.Add(derived).Linearize().Truncate(k)
//	changed = !merged.Equal(stored)
//	fresh = the monomials of merged whose keys stored lacks
//
// with merged = stored and fresh = 0 when nothing changed, and truncated
// reports that the cut dropped at least one monomial (a derivation the
// Subsumes test rejects outright never reaches the cut). k ≤ 0 means
// unbounded.
//
// When stored is linear — every annotation a witness-mode merge stores
// is — the chain is one pass over the two key lists that finds the new monomials and
// builds a degree histogram of the union, from which the cut follows. The
// merge allocates nothing when no new monomial survives the cut (the
// re-derivation of a known or of a too-long witness); otherwise it builds
// exactly the two result nodes, from the monomials and keys of its inputs. A non-linear stored
// annotation (an EDB fact in N[X]), or a union with a derivation of 64 or
// more tokens when the cut binds, runs the chain itself.
func MergeWitness(stored, derived Poly, k int) (merged, fresh Poly, changed, truncated bool) {
	return mergeWitness(stored, derived, k, true)
}

// mergeWitness is MergeWitness; without wantFresh it leaves the new part
// unbuilt (fresh is then meaningless).
func mergeWitness(stored, derived Poly, k int, wantFresh bool) (merged, fresh Poly, changed, truncated bool) {
	d := derived.Linearize()
	if !stored.n.linear() {
		return mergeChain(stored, d, k)
	}
	s := stored.n
	// Pass 1: count the union and its new monomials, and histogram the
	// union's degrees (the degree of a linear monomial is its length).
	var hist [64]int32
	total, added, deep := 0, 0, false
	w := witnessWalk{a: s, b: d.n}
	for m, _, onlyD, ok := w.next(); ok; m, _, onlyD, ok = w.next() {
		total++
		if onlyD {
			added++
		}
		if deg := len(m.Vars); deg < len(hist) {
			hist[deg]++
		} else {
			deep = true
		}
	}
	if added == 0 {
		return stored, Poly{}, false, false
	}
	truncated = k > 0 && total > k
	cut := witnessCut{deg: math.MaxInt}
	if truncated {
		if deep {
			return mergeChain(stored, d, k)
		}
		below := 0
		for deg, c := range hist {
			if below+int(c) >= k {
				cut = witnessCut{deg: deg, tie: k - below}
				break
			}
			below += int(c)
		}
	}
	// Pass 2: does any new monomial survive the cut, or does the cut drop a
	// stored one? Neither means stored is already the answer.
	keptNew, keptOld := added, total-added
	if truncated {
		keptNew, keptOld = 0, 0
		w, c := witnessWalk{a: s, b: d.n}, cut
		for m, _, onlyD, ok := w.next(); ok; m, _, onlyD, ok = w.next() {
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
	dn := d.NumMonomials()
	reuseMerged := !truncated && total == dn
	reuseFresh := keptNew == dn
	buildFresh := wantFresh && !reuseFresh && s != nil
	var monos, fmonos []Monomial
	var keys, fkeys []string
	if !reuseMerged {
		monos, keys = make([]Monomial, 0, keptNew+keptOld), make([]string, 0, keptNew+keptOld)
	}
	if buildFresh {
		fmonos, fkeys = make([]Monomial, 0, keptNew), make([]string, 0, keptNew)
	}
	w = witnessWalk{a: s, b: d.n}
	for m, key, onlyD, ok := w.next(); ok; m, key, onlyD, ok = w.next() {
		if !cut.keeps(m) {
			continue
		}
		if !reuseMerged {
			monos, keys = append(monos, *m), append(keys, key)
		}
		if onlyD && buildFresh {
			fmonos, fkeys = append(fmonos, *m), append(fkeys, key)
		}
	}
	merged, fresh = d, d
	if !reuseMerged {
		merged = markLinear(newNode(monos, keys))
	}
	switch {
	case s == nil:
		// Nothing was stored: the new part is the whole result.
		fresh = merged
	case buildFresh:
		fresh = markLinear(newNode(fmonos, fkeys))
	}
	return merged, fresh, true, truncated
}

// mergeChain is MergeWitness by its definition, for inputs the one-pass
// kernel does not take.
func mergeChain(stored, derived Poly, k int) (merged, fresh Poly, changed, truncated bool) {
	if stored.Subsumes(derived) {
		return stored, Poly{}, false, false
	}
	sum := stored.Add(derived).Linearize()
	merged = sum.Truncate(k)
	truncated = merged.NumMonomials() < sum.NumMonomials()
	if merged.Equal(stored) {
		return stored, Poly{}, false, truncated
	}
	ek, mk, mm := stored.Keys(), merged.Keys(), merged.Monomials()
	var add []Monomial
	i := 0
	for j, key := range mk {
		for i < len(ek) && ek[i] < key {
			i++
		}
		if i < len(ek) && ek[i] == key {
			i++
			continue
		}
		add = append(add, mm[j])
	}
	return merged, FromMonomials(add), true, truncated
}

// UnionWitness returns p.Add(q).Linearize(), the B[X] sum: for linear
// operands — the semi-naive deltas the engine accumulates — a merge of the
// two key lists that returns an operand unchanged when it already contains
// the other.
func UnionWitness(p, q Poly) Poly {
	if !p.n.linear() {
		return p.Add(q).Linearize()
	}
	merged, _, _, _ := mergeWitness(p, q, 0, false)
	return merged
}

// MulWitness returns p.Mul(q).Linearize(), the B[X] product, without
// building the N[X] product: each pair of monomials contributes the sorted
// union of their variables, written once into one shared variable array and
// one key string, and the pairs are then sorted and deduplicated into a
// linear node. (Coefficients only decide whether a product is zero, so the
// two agree whenever no coefficient product or sum wraps around 2^64.)
func MulWitness(p, q Poly) Poly {
	if p.IsZero() || q.IsZero() {
		return Poly{}
	}
	if p.IsOne() {
		return q.Linearize()
	}
	if q.IsOne() {
		return p.Linearize()
	}
	pm, qm := p.n.monos, q.n.monos
	nv, nb := 0, 0
	for _, a := range pm {
		for _, vp := range a.Vars {
			nv += len(qm)
			nb += len(qm) * (len(vp.Var) + 1)
		}
	}
	for _, b := range qm {
		for _, vp := range b.Vars {
			nv += len(pm)
			nb += len(pm) * (len(vp.Var) + 1)
		}
	}
	vars := make([]VarPow, 0, nv)
	monos := make([]Monomial, 0, len(pm)*len(qm))
	keys := make([]string, 0, len(pm)*len(qm))
	var kb strings.Builder
	kb.Grow(nb)
	for _, a := range pm {
		for _, b := range qm {
			if a.Coef*b.Coef == 0 {
				continue
			}
			start, kstart := len(vars), kb.Len()
			i, j := 0, 0
			for i < len(a.Vars) || j < len(b.Vars) {
				var v Var
				switch {
				case j == len(b.Vars) || (i < len(a.Vars) && a.Vars[i].Var < b.Vars[j].Var):
					v = a.Vars[i].Var
					i++
				case i == len(a.Vars) || b.Vars[j].Var < a.Vars[i].Var:
					v = b.Vars[j].Var
					j++
				default:
					v = a.Vars[i].Var
					i++
					j++
				}
				vars = append(vars, VarPow{Var: v, Pow: 1})
				kb.WriteString(string(v))
				kb.WriteByte(';')
			}
			monos = append(monos, Monomial{Coef: 1, Vars: vars[start:len(vars):len(vars)]})
			// The key of a linear monomial is each variable followed by ';'.
			keys = append(keys, kb.String()[kstart:])
		}
	}
	return markLinear(canonicalize(monos, keys, true))
}
