package provenance

import (
	"fmt"
	"strings"
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
	m := Monomial{"a", "b"}
	a := Poly{n: &polyNode{monos: []Monomial{m}, keys: []string{m.Key()}, hash: hashMonos([]string{m.Key()})}}
	b := Poly{n: &polyNode{monos: []Monomial{m}, keys: []string{m.Key()}, hash: a.n.hash}}
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

// TestHashStringUsesEveryByte checks the word-at-a-time string hash at
// every length around its word and half-word boundaries: flipping any one
// byte changes the hash.
func TestHashStringUsesEveryByte(t *testing.T) {
	for n := 1; n <= 33; n++ {
		s := []byte(strings.Repeat("k", n))
		base := hashString(1, string(s))
		for i := range s {
			s[i] ^= 1
			if hashString(1, string(s)) == base {
				t.Errorf("length %d: flipping byte %d leaves the hash unchanged", n, i)
			}
			s[i] ^= 1
		}
	}
}
