package provenance_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"orchestra/internal/datalog"
	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

// idOrderSuffixes are the names both sets share after their prefix: a name
// and its extension ("x:1/2", "x:1/23" — the key order puts the longer
// first), names holding ';' that spell other monomials' keys, and token-
// and mapping-shaped names.
var idOrderSuffixes = []string{
	"x:1/2", "x:1/23", "x:1/2;", "y", "y;z", "z", "y;", "p:3/0", "p:10/0", "m:0", "M_AB", "q",
}

// idOrderSet mints prefix+suffix for every suffix, forwards or backwards,
// and returns the ids in suffix order.
func idOrderSet(t *testing.T, prefix string, backwards bool) []provenance.Token {
	ids := make([]provenance.Token, len(idOrderSuffixes))
	for n := range idOrderSuffixes {
		i := n
		if backwards {
			i = len(idOrderSuffixes) - 1 - n
		}
		ids[i] = provenance.Mint(provenance.Var(prefix + idOrderSuffixes[i]))
	}
	for i := 1; i < len(ids); i++ {
		if (ids[i] < ids[i-1]) != backwards {
			t.Fatalf("set %q: ids %v are not minted in the order the test needs", prefix, ids)
		}
	}
	return ids
}

// idOrderPoly builds a sum of products over ids from a shape: each inner
// list is one product of suffix indexes.
func idOrderPoly(ids []provenance.Token, shape [][]int) provenance.Poly {
	p := provenance.Zero()
	for _, prod := range shape {
		m := provenance.One()
		for _, i := range prod {
			m = m.Mul(provenance.NewToken(ids[i]))
		}
		p = p.Add(m)
	}
	return p
}

func randShape(rng *rand.Rand) [][]int {
	shape := make([][]int, rng.Intn(6))
	for i := range shape {
		for d := rng.Intn(4); d > 0; d-- {
			shape[i] = append(shape[i], rng.Intn(len(idOrderSuffixes)))
		}
	}
	return shape
}

// TestIDOrderDoesNotLeak builds the same polynomials over two name sets
// that differ only in an equal-length prefix, minted in opposite orders,
// and checks that nothing the package reports sees the ids: rendering, the
// witness cut's survivors, and the DB snapshot codec's bytes agree once the
// prefix is swapped. The prefixes start with a byte no suffix holds and
// that sorts above all of them, so the swap preserves every key order.
func TestIDOrderDoesNotLeak(t *testing.T) {
	const pa, pb = "~a", "~b"
	a, b := idOrderSet(t, pa, false), idOrderSet(t, pb, true)
	strip := func(p provenance.Poly, prefix string) string {
		return strings.ReplaceAll(p.String(), prefix, "")
	}
	rng := rand.New(rand.NewSource(29))
	dbA, dbB := datalog.NewDB(), datalog.NewDB()
	for i := 0; i < 2000; i++ {
		storedShape, derivedShape := randShape(rng), randShape(rng)
		sa, sb := idOrderPoly(a, storedShape), idOrderPoly(b, storedShape)
		da, db := idOrderPoly(a, derivedShape), idOrderPoly(b, derivedShape)
		if got, want := strip(sb, pb), strip(sa, pa); got != want {
			t.Fatalf("String: %q with ids minted backwards, %q forwards", got, want)
		}
		for _, k := range []int{1, 2, 8} {
			ma, fa, ca, ta := provenance.MergeWitness(sa, da, k)
			mb, fb, cb, tb := provenance.MergeWitness(sb, db, k)
			if strip(ma, pa) != strip(mb, pb) || strip(fa, pa) != strip(fb, pb) || ca != cb || ta != tb {
				t.Fatalf("MergeWitness(%v, %v, %d) = %v, %v, %v, %v; over the other ids %v, %v, %v, %v",
					sa, da, k, ma, fa, ca, ta, mb, fb, cb, tb)
			}
		}
		tu := schema.NewTuple(schema.Int(int64(i % 97)))
		dbA.Add("R", tu, sa.Mul(da))
		dbB.Add("R", tu, sb.Mul(db))
	}
	encA, encB := datalog.AppendDB(nil, dbA), datalog.AppendDB(nil, dbB)
	if !bytes.Equal(bytes.ReplaceAll(encA, []byte(pa), []byte(pb)), encB) {
		t.Fatal("AppendDB bytes differ between the two id orders")
	}
	if len(encA) < 100 {
		t.Fatalf("snapshot of %d bytes: the test built nothing", len(encA))
	}
}
