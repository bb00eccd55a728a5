package provenance

import (
	"fmt"
	"sync"
	"testing"
)

// TestInternSharing pins the hash-consing contract: rebuilding the same
// polynomial yields the same shared node (pointer-equal), and Equal takes
// the pointer fast path.
func TestInternSharing(t *testing.T) {
	mk := func() Poly {
		p := Zero()
		for i := 0; i < 5; i++ {
			p = p.Add(NewVar(Var(fmt.Sprint("x", i))).Mul(NewVar(Var(fmt.Sprint("y", i)))))
		}
		return p
	}
	p, q := mk(), mk()
	if p.n != q.n {
		t.Errorf("rebuilt polynomial did not share the interned node")
	}
	if !p.Equal(q) {
		t.Errorf("Equal(p, q) = false for identical polynomials")
	}
	if One().Mul(One()).n != One().n {
		t.Errorf("1·1 is not the shared singleton One")
	}
}

// TestEqualStructuralFallback verifies that equality does not depend on
// cache residency: two structurally equal nodes built outside the cache
// (simulating a slot eviction between their constructions) still compare
// equal through the hash-guarded structural path.
func TestEqualStructuralFallback(t *testing.T) {
	monos := []Monomial{mono("a", "b")}
	a := Poly{n: &polyNode{hash: hashMonos(monos), buf: flatten(monos)}}
	b := Poly{n: &polyNode{hash: a.n.hash, buf: flatten(monos)}}
	if a.n == b.n {
		t.Fatal("test needs two distinct nodes")
	}
	if !a.Equal(b) {
		t.Errorf("structurally equal polynomials with distinct nodes compare unequal")
	}
	c := NewVar("a")
	if a.Equal(c) {
		t.Errorf("distinct polynomials compare equal")
	}
}

// TestInternEviction exercises the direct-mapped eviction path: flooding
// the cache with distinct polynomials must never corrupt previously built
// values, only reduce sharing.
func TestInternEviction(t *testing.T) {
	keep := NewVar("keeper").Mul(NewVar("kept"))
	want := keep.String()
	for i := 0; i < 3*internSlots/2; i++ {
		_ = NewVar(Var(fmt.Sprint("flood", i)))
	}
	if keep.String() != want {
		t.Errorf("interned value changed under eviction pressure: %s != %s", keep.String(), want)
	}
	rebuilt := NewVar("keeper").Mul(NewVar("kept"))
	if !keep.Equal(rebuilt) {
		t.Errorf("rebuilt polynomial unequal after eviction")
	}
	if InternTableSize() == 0 {
		t.Errorf("intern table empty after flood")
	}
}

// TestHashMonosUsesEveryToken checks the id hash at every monomial length
// around its two-ids-to-a-word boundary: changing any one id, or moving the
// boundary between two monomials, changes the hash.
func TestHashMonosUsesEveryToken(t *testing.T) {
	for n := 1; n <= 9; n++ {
		m := make(Monomial, n)
		for i := range m {
			m[i] = Token(i + 1)
		}
		base := hashMonos([]Monomial{m})
		for i := range m {
			m[i] ^= 1 << 20
			if hashMonos([]Monomial{m}) == base {
				t.Errorf("length %d: changing id %d leaves the hash unchanged", n, i)
			}
			m[i] ^= 1 << 20
		}
		for cut := 1; cut < n; cut++ {
			if hashMonos([]Monomial{m[:cut], m[cut:]}) == base {
				t.Errorf("length %d: splitting at %d leaves the hash unchanged", n, cut)
			}
		}
	}
}

// TestTokenTableConcurrent mints fresh tokens — enough to open new chunks
// of the table — on some goroutines while others multiply, merge and
// intern polynomials over tokens minted before, reading their names
// without a lock. Run under -race (make race) it checks that reading a
// name never races with minting; every result is also checked against
// one computed before the goroutines started.
func TestTokenTableConcurrent(t *testing.T) {
	base := make([]Poly, 8)
	for i := range base {
		base[i] = NewVar(Var(fmt.Sprintf("conc:%d/0", i))).Mul(NewVar(Var(fmt.Sprint("conc:m", i%3))))
	}
	sum := Zero()
	for _, p := range base {
		sum = sum.Add(p)
	}
	wantMul := sum.Mul(base[0]).String()
	wantMerge, _, _, _ := MergeWitness(base[1], sum, 4)
	wantMergeS := wantMerge.String()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				name := Var(fmt.Sprintf("conc-fresh:%d/%d", g, i))
				if got := Mint(name).Var(); got != name {
					t.Errorf("Mint(%q).Var() = %q", name, got)
					return
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if got := sum.Mul(base[0]).Intern().String(); got != wantMul {
					t.Errorf("Mul = %s, want %s", got, wantMul)
					return
				}
				m, _, _, _ := MergeWitness(base[1], sum, 4)
				if got := m.Intern().String(); got != wantMergeS {
					t.Errorf("MergeWitness = %s, want %s", got, wantMergeS)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// InternTableSize returns the number of resident interned polynomials.
func InternTableSize() int {
	n := 0
	for i := range internCache {
		if internCache[i].Load() != nil {
			n++
		}
	}
	return n
}
