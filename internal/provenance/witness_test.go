package provenance

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// chainMerge is the witness merge spelled out as the N[X] operations it
// stands for — the definition MergeWitness must reproduce.
func chainMerge(stored, derived Poly, k int) (merged, fresh Poly, changed, truncated bool) {
	d := derived.Linearize()
	if stored.Subsumes(d) {
		return stored, Zero(), false, false
	}
	sum := stored.Add(d).Linearize()
	merged = sum.Truncate(k)
	truncated = merged.NumMonomials() < sum.NumMonomials()
	if merged.Equal(stored) {
		return stored, Zero(), false, truncated
	}
	had := map[string]bool{}
	for _, key := range stored.Keys() {
		had[key] = true
	}
	var add []Monomial
	for i, key := range merged.Keys() {
		if !had[key] {
			add = append(add, merged.Monomials()[i])
		}
	}
	return merged, FromMonomials(add), true, truncated
}

// samePoly reports equality as values, as monomial lists (coefficient and
// variable powers, in order) and as key lists.
func samePoly(a, b Poly) bool {
	am, bm := a.Monomials(), b.Monomials()
	if !a.Equal(b) || len(am) != len(bm) || !reflect.DeepEqual(a.Keys(), b.Keys()) {
		return false
	}
	for i := range am {
		if am[i].Coef != bm[i].Coef || len(am[i].Vars) != len(bm[i].Vars) {
			return false
		}
		for j := range am[i].Vars {
			if am[i].Vars[j] != bm[i].Vars[j] {
				return false
			}
		}
	}
	return true
}

// checkMergeWitness compares the kernel against the chain on one input.
func checkMergeWitness(t *testing.T, stored, derived Poly, k int) {
	t.Helper()
	wm, wf, wc, wt := chainMerge(stored, derived, k)
	gm, gf, gc, gt := MergeWitness(stored, derived, k)
	if !samePoly(gm, wm) || !samePoly(gf, wf) || gc != wc || gt != wt {
		t.Fatalf("MergeWitness(%v, %v, %d)\n got merged=%v fresh=%v changed=%v truncated=%v\nwant merged=%v fresh=%v changed=%v truncated=%v",
			stored, derived, k, gm, gf, gc, gt, wm, wf, wc, wt)
	}
	if got, want := UnionWitness(stored, derived), stored.Add(derived).Linearize(); !samePoly(got, want) {
		t.Fatalf("UnionWitness(%v, %v) = %v, want %v", stored, derived, got, want)
	}
	if got, want := MulWitness(stored, derived), stored.Mul(derived).Linearize(); !samePoly(got, want) {
		t.Fatalf("MulWitness(%v, %v) = %v, want %v", stored, derived, got, want)
	}
}

// randPoly draws a polynomial over a five-variable alphabet — small enough
// that monomials of different operands overlap often — with up to six
// monomials of degree 0–5; repeated draws of one variable make powers, and
// coefficients reach 3 unless linear is set.
func randPoly(rng *rand.Rand, linear bool) Poly {
	var ms []Monomial
	for i := rng.Intn(7); i > 0; i-- {
		pows := map[Var]int{}
		for d := rng.Intn(6); d > 0; d-- {
			pows[Var(string(rune('a'+rng.Intn(5))))]++
		}
		m := Monomial{Coef: uint64(1 + rng.Intn(3))}
		for _, x := range []Var{"a", "b", "c", "d", "e"} {
			if pows[x] > 0 {
				m.Vars = append(m.Vars, VarPow{Var: x, Pow: pows[x]})
			}
		}
		ms = append(ms, m)
	}
	p := FromMonomials(ms)
	if linear {
		p = p.Linearize()
	}
	return p
}

// TestMergeWitnessMatchesChain is the kernel's differential test: random
// stored and derived annotations — linear and not, either side zero — at
// every bound the engine meets, and the products and sums beside them.
func TestMergeWitnessMatchesChain(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 20000; i++ {
		stored := randPoly(rng, rng.Intn(4) != 0)
		derived := randPoly(rng, rng.Intn(2) == 0)
		for _, k := range []int{0, 1, 2, 3, 8} {
			checkMergeWitness(t, stored, derived, k)
			// The stored side as the engine keeps it: already cut to k.
			if stored.n.linear() {
				checkMergeWitness(t, stored.Truncate(k), derived, k)
			}
		}
	}
}

// TestMergeWitnessDeepDerivation covers a union holding a monomial of 64 or
// more tokens, whose degree the cut's histogram does not index.
func TestMergeWitnessDeepDerivation(t *testing.T) {
	long := One()
	for i := 0; i < 70; i++ {
		long = long.Mul(NewVar(Var(fmt.Sprintf("t%02d", i))))
	}
	x, y, z := NewVar("x"), NewVar("y"), NewVar("z")
	for _, k := range []int{0, 1, 2, 3} {
		checkMergeWitness(t, x.Add(y), long, k)
		checkMergeWitness(t, long, z, k)
		checkMergeWitness(t, x.Add(long), y.Add(z), k)
	}
}

// decodeFuzzPoly reads one polynomial from data: each monomial is a header
// byte (coefficient 1–4 and 0–5 variables) followed by one byte per
// variable drawn from a five-letter alphabet, so repeats make powers. A
// 0xff byte ends the polynomial.
func decodeFuzzPoly(data []byte) (Poly, []byte) {
	var ms []Monomial
	for len(data) > 0 {
		h := data[0]
		data = data[1:]
		if h == 0xff {
			break
		}
		pows := map[Var]int{}
		for n := int(h&7) % 6; n > 0 && len(data) > 0; n-- {
			pows[Var(string(rune('a'+data[0]%5)))]++
			data = data[1:]
		}
		m := Monomial{Coef: uint64(1 + (h>>3)%4)}
		for _, x := range []Var{"a", "b", "c", "d", "e"} {
			if pows[x] > 0 {
				m.Vars = append(m.Vars, VarPow{Var: x, Pow: pows[x]})
			}
		}
		ms = append(ms, m)
	}
	return FromMonomials(ms), data
}

// FuzzMergeWitness holds MergeWitness, UnionWitness and MulWitness to their
// N[X] definitions on arbitrary polynomial pairs. The first byte picks the
// bound and whether the stored side is linear, as every stored annotation
// of the engine is.
func FuzzMergeWitness(f *testing.F) {
	f.Add([]byte{0x02, 0x01, 0x00, 0x02, 0x01, 0x02, 0xff, 0x03, 0x00, 0x01, 0x03})
	f.Add([]byte{0x13, 0x0a, 0x00, 0x01, 0x02, 0xff, 0x0b, 0x00, 0x00, 0x01})
	f.Add([]byte{0x01, 0xff, 0x01, 0x04})
	f.Add([]byte{0x08, 0x01, 0x00, 0x01, 0x01, 0x01, 0x02, 0x01, 0x03, 0xff, 0x02, 0x00, 0x04, 0x01, 0x04})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := []int{0, 1, 2, 3, 8}[int(data[0]&7)%5]
		linear := data[0]&0x10 != 0
		stored, rest := decodeFuzzPoly(data[1:])
		derived, _ := decodeFuzzPoly(rest)
		if linear {
			stored = stored.Linearize()
		}
		checkMergeWitness(t, stored, derived, k)
	})
}

// benchWitnessSet is a stored annotation shaped like a bound-saturated
// tuple on a mesh: eight witnesses of two and three tokens.
func benchWitnessSet() Poly {
	p := Zero()
	for i := 0; i < 8; i++ {
		m := NewVar(Var(fmt.Sprintf("p:%d/0", i))).Mul(NewVar(Var(fmt.Sprintf("m:%d", i%3))))
		if i >= 4 {
			m = m.Mul(NewVar(Var(fmt.Sprintf("m:%d", 3+i%2))))
		}
		p = p.Add(m)
	}
	return p.Linearize()
}

// BenchmarkMergeWitness runs one merge into a saturated eight-witness set
// through the kernel and through the chain it replaced: reject folds in a
// four-token witness the cut drops, grow a one-token witness that displaces
// a three-token one.
func BenchmarkMergeWitness(b *testing.B) {
	stored := benchWitnessSet()
	reject := MulWitness(MulWitness(NewVar("p:9/0"), NewVar("m:0")), MulWitness(NewVar("m:1"), NewVar("m:2")))
	grow := NewVar("p:10/0")
	for _, impl := range []struct {
		name  string
		merge func(stored, derived Poly, k int) (Poly, Poly, bool, bool)
	}{{"kernel", MergeWitness}, {"chain", chainMerge}} {
		for _, c := range []struct {
			name    string
			derived Poly
		}{{"reject", reject}, {"grow", grow}} {
			b.Run(impl.name+"/"+c.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchSink, _, _, _ = impl.merge(stored, c.derived, 8)
				}
			})
		}
	}
}

var benchSink Poly
