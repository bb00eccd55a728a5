package provenance

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// byDegreeThenKey orders monomials the way the cut ranks them, spelling
// each key out as a string.
func byDegreeThenKey(a, b Monomial) int {
	return cmp.Or(cmp.Compare(len(a), len(b)), strings.Compare(monoKey(a), monoKey(b)))
}

// mono mints the named tokens into a monomial, in the order given.
func mono(xs ...Var) Monomial {
	m := make(Monomial, len(xs))
	for i, x := range xs {
		m[i] = Mint(x)
	}
	return m
}

// truncate keeps the k monomials of p of lowest degree, ties broken by key;
// k ≤ 0 means unbounded.
func truncate(p Poly, k int) Poly {
	if k <= 0 || p.NumMonomials() <= k {
		return p
	}
	ms := slices.Clone(monomialsOf(p))
	slices.SortFunc(ms, byDegreeThenKey)
	return FromMonomials(ms[:k])
}

// refMerge is the witness merge spelled out on sets of key strings — the
// definition MergeWitness must reproduce: the union of the two key sets,
// sorted by (degree, key) and cut to k, then what the stored side lacks.
func refMerge(stored, derived Poly, k int) (merged, fresh Poly, changed, truncated bool) {
	union := map[string]Monomial{}
	for _, m := range monomialsOf(stored) {
		union[monoKey(m)] = m
	}
	grows := false
	for _, m := range monomialsOf(derived) {
		if _, ok := union[monoKey(m)]; !ok {
			union[monoKey(m)] = m
			grows = true
		}
	}
	if !grows {
		return stored, Zero(), false, false
	}
	ms := slices.SortedFunc(maps.Values(union), byDegreeThenKey)
	if k > 0 && len(ms) > k {
		ms, truncated = ms[:k], true
	}
	merged = FromMonomials(ms)
	if merged.Equal(stored) {
		return stored, Zero(), false, truncated
	}
	had := map[string]bool{}
	for _, m := range monomialsOf(stored) {
		had[monoKey(m)] = true
	}
	var add []Monomial
	for _, m := range ms {
		if !had[monoKey(m)] {
			add = append(add, m)
		}
	}
	return merged, FromMonomials(add), true, truncated
}

// refMul is the B[X] product spelled out: the union of every pair of
// monomials.
func refMul(p, q Poly) Poly {
	var ms []Monomial
	for _, a := range monomialsOf(p) {
		for _, b := range monomialsOf(q) {
			ms = append(ms, append(slices.Clone(a), b...))
		}
	}
	return FromMonomials(ms)
}

// samePoly reports equality as values and as monomial lists, and that a is
// in canonical order by names: each monomial's names strictly increasing,
// and each monomial's key, spelled out as a string, above the one before.
func samePoly(a, b Poly) bool {
	ms := monomialsOf(a)
	for i, m := range ms {
		if i > 0 && monoKey(ms[i-1]) >= monoKey(m) {
			return false
		}
		for j := 1; j < len(m); j++ {
			if m[j-1].Var() >= m[j].Var() {
				return false
			}
		}
	}
	return a.Equal(b) && slices.EqualFunc(ms, monomialsOf(b), slices.Equal)
}

// checkMergeWitness compares the kernel, Add and Mul against their set
// definitions on one input.
func checkMergeWitness(t *testing.T, stored, derived Poly, k int) {
	t.Helper()
	wm, wf, wc, wt := refMerge(stored, derived, k)
	gm, gf, gc, gt := MergeWitness(stored, derived, k)
	if !samePoly(gm, wm) || !samePoly(gf, wf) || gc != wc || gt != wt {
		t.Fatalf("MergeWitness(%v, %v, %d)\n got merged=%v fresh=%v changed=%v truncated=%v\nwant merged=%v fresh=%v changed=%v truncated=%v",
			stored, derived, k, gm, gf, gc, gt, wm, wf, wc, wt)
	}
	if got, want := stored.Add(derived), FromMonomials(append(slices.Clone(monomialsOf(stored)), monomialsOf(derived)...)); !samePoly(got, want) {
		t.Fatalf("%v + %v = %v, want %v", stored, derived, got, want)
	}
	if got, want := stored.Mul(derived), refMul(stored, derived); !samePoly(got, want) {
		t.Fatalf("%v · %v = %v, want %v", stored, derived, got, want)
	}
}

// alphabet is the five names randPoly and the fuzz target draw from: few
// enough that monomials of different operands overlap often, and holding a
// name and its extensions ("a", "ab"; "x:1/2", "x:1/23"), whose key order
// differs from their name order.
var alphabet = []Var{"a", "ab", "b", "x:1/2", "x:1/23"}

// randPoly draws a polynomial over alphabet with up to six monomials of up
// to five draws each; a repeated draw adds nothing.
func randPoly(rng *rand.Rand) Poly {
	var ms []Monomial
	for i := rng.Intn(7); i > 0; i-- {
		var m Monomial
		for d := rng.Intn(6); d > 0; d-- {
			m = append(m, Mint(alphabet[rng.Intn(len(alphabet))]))
		}
		ms = append(ms, m)
	}
	return FromMonomials(ms)
}

// TestMergeWitnessMatchesChain is the kernel's differential test: random
// stored and derived annotations — either side zero — at every bound the
// engine meets, and the products and sums beside them.
func TestMergeWitnessMatchesChain(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 20000; i++ {
		stored, derived := randPoly(rng), randPoly(rng)
		for _, k := range []int{0, 1, 2, 3, 8} {
			checkMergeWitness(t, stored, derived, k)
			// The stored side as the engine keeps it: already cut to k.
			checkMergeWitness(t, truncate(stored, k), derived, k)
		}
	}
}

// TestMergeWitnessDeepDerivation covers unions holding monomials of 63 or
// more tokens, whose degrees the cut's histogram lumps into one bucket —
// including cuts that land among them.
func TestMergeWitnessDeepDerivation(t *testing.T) {
	deep := func(n int, prefix string) Poly {
		p := One()
		for i := 0; i < n; i++ {
			p = p.Mul(NewVar(Var(fmt.Sprintf("%s%02d", prefix, i))))
		}
		return p
	}
	long := deep(70, "t")
	x, y, z := NewVar("x"), NewVar("y"), NewVar("z")
	deeps := deep(63, "a").Add(deep(66, "b")).Add(deep(64, "c")).Add(deep(66, "d"))
	for _, k := range []int{0, 1, 2, 3, 4, 5} {
		checkMergeWitness(t, x.Add(y), long, k)
		checkMergeWitness(t, long, z, k)
		checkMergeWitness(t, x.Add(long), y.Add(z), k)
		checkMergeWitness(t, deeps, long, k)
		checkMergeWitness(t, long.Add(x), deeps, k)
		checkMergeWitness(t, deep(66, "e"), deeps, k)
	}
}

// decodeFuzzPoly reads one polynomial from data: each monomial is a header
// byte (0–5 variables) followed by one byte per variable drawn from
// alphabet, so repeats collapse. A 0xff byte ends the polynomial.
func decodeFuzzPoly(data []byte) (Poly, []byte) {
	var ms []Monomial
	for len(data) > 0 {
		h := data[0]
		data = data[1:]
		if h == 0xff {
			break
		}
		var m Monomial
		for n := int(h&7) % 6; n > 0 && len(data) > 0; n-- {
			m = append(m, Mint(alphabet[int(data[0])%len(alphabet)]))
			data = data[1:]
		}
		ms = append(ms, m)
	}
	return FromMonomials(ms), data
}

// FuzzMergeWitness holds MergeWitness, Add and Mul to their set definitions
// on arbitrary polynomial pairs. The first byte picks the bound and whether
// the stored side is already cut to it, as every stored annotation of the
// engine is.
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
		stored, rest := decodeFuzzPoly(data[1:])
		derived, _ := decodeFuzzPoly(rest)
		if data[0]&0x10 != 0 {
			stored = truncate(stored, k)
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
	return p
}

// BenchmarkMergeWitness runs one merge into a saturated eight-witness set:
// reject folds in a four-token witness the cut drops, grow a one-token
// witness that displaces a three-token one.
func BenchmarkMergeWitness(b *testing.B) {
	stored := benchWitnessSet()
	reject := NewVar("p:9/0").Mul(NewVar("m:0")).Mul(NewVar("m:1").Mul(NewVar("m:2")))
	grow := NewVar("p:10/0")
	for _, c := range []struct {
		name    string
		derived Poly
	}{{"reject", reject}, {"grow", grow}} {
		b.Run("kernel/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink, _, _, _ = MergeWitness(stored, c.derived, 8)
			}
		})
	}
}

// BenchmarkMul runs the products the evaluator forms, with the result
// resident in the intern cache as in a steady fixpoint: 1x1 is the
// emitRow step prov · tokProv (a two-token witness times a token), 1x8 a
// token times a saturated witness set, 8x8 two saturated sets.
func BenchmarkMul(b *testing.B) {
	set := benchWitnessSet()
	pair := NewVar("p:1/0").Mul(NewVar("m:0"))
	tok := NewVar("M_AB")
	for _, c := range []struct {
		name string
		p, q Poly
	}{{"1x1", pair, tok}, {"1x8", tok, set}, {"8x8", set, set.Mul(tok)}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = c.p.Mul(c.q)
			}
		})
	}
}

var benchSink Poly
