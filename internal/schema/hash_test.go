package schema

import (
	"bytes"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// hashValues are the edge cases Hash and CompareKeys must get right: NaN
// payloads, both zeros, the same payload under different kinds, numbers
// whose decimal spellings differ in length, and strings that share bytes
// across component boundaries.
func hashValues() []Value {
	nan1 := math.Float64frombits(0x7ff8000000000001)
	nan2 := math.Float64frombits(0xfff8000000000abc)
	return []Value{
		{}, Float(nan1), Float(nan2), Float(math.NaN()),
		Float(0), Float(math.Copysign(0, -1)), Float(1), Float(-1), Float(1.5), Float(1e21),
		Float(math.Inf(1)), Float(math.Inf(-1)), Float(123456.75),
		Int(0), Int(1), Int(-1), Int(9), Int(10), Int(-9), Int(-10), Int(99), Int(-100),
		Int(math.MaxInt64), Int(math.MinInt64),
		Bool(false), Bool(true),
		String(""), String("x"), String("xy"), String("1"), String("i:1"), String("abcdefghij"),
		LabeledNull(""), LabeledNull("x"), LabeledNull("f(i:1)"),
	}
}

// Hash must agree with Equal: equal tuples hash alike. Distinct values
// among the fixed edge cases hash apart too (a collision there would only
// cost a chain walk, but it would mean a kind or payload is not folded in).
func TestHashAgreesWithEqual(t *testing.T) {
	vs := hashValues()
	for _, a := range vs {
		for _, b := range vs {
			ta, tb := NewTuple(a, Int(7)), NewTuple(b, Int(7))
			same := ta.Hash() == tb.Hash()
			if ta.Equal(tb) && !same {
				t.Errorf("Equal tuples %v and %v hash apart", ta, tb)
			}
			if !ta.Equal(tb) && same {
				t.Errorf("distinct tuples %v and %v share a hash", ta, tb)
			}
		}
	}
	pairs := [][2]Value{
		{Int(1), Float(1)},
		{String("x"), LabeledNull("x")},
		{Int(1), Bool(true)},
		{Float(0), Float(math.Copysign(0, -1))},
	}
	for _, p := range pairs {
		if NewTuple(p[0]).Hash() == NewTuple(p[1]).Hash() {
			t.Errorf("%v (%s) and %v (%s) hash alike", p[0], p[0].Kind(), p[1], p[1].Kind())
		}
	}
	if NewTuple(Float(math.NaN())).Hash() != NewTuple(Float(math.Float64frombits(0x7ff0000000000f00))).Hash() {
		t.Error("two NaN payloads hash apart")
	}
}

// An unkeyed wyhash-style fold, mix(h, x) = fold((h^x)*K) ^ C, returns C
// whenever the folded word equals the state, so anyone who knows the
// starting state can pick, for every a, the b that pins (Int(a), Int(b))
// to one hash, and with it one extent chain. Tuple.Hash keys every fold
// with per-process secrets, so the same crafted tuples must hash apart.
func TestHashResistsCraftedCollisions(t *testing.T) {
	unkeyed := func(h, x uint64) uint64 {
		hi, lo := bits.Mul64(h^x, 0xa0761d6478bd642f)
		return hi ^ lo ^ 0xe7037ed1a0b428db
	}
	const n = 64
	unkeyedHashes, hashes := map[uint64]bool{}, map[uint64]bool{}
	for a := int64(0); a < n; a++ {
		h := unkeyed(unkeyed(HashStart, uint64(KindInt)), uint64(a))
		h = unkeyed(h, uint64(KindInt))
		b := int64(h) // the zero-product choice: b equals the state it is folded into
		unkeyedHashes[unkeyed(h, uint64(b))] = true
		hashes[NewTuple(Int(a), Int(b)).Hash()] = true
	}
	// The string payload words are seeded hashes; none may line up with a
	// fold secret, whatever short string an input picks.
	for c := 0; c < 256; c++ {
		trailing := map[uint64]bool{}
		for a := int64(0); a < 4; a++ {
			trailing[NewTuple(Int(a), String(string([]byte{byte(c)}))).Hash()] = true
		}
		if len(trailing) != 4 {
			t.Fatalf("tuples ending in String(%q) share a hash", []byte{byte(c)})
		}
	}
	if len(unkeyedHashes) != 1 {
		t.Fatalf("the crafted tuples spread over %d hashes under the unkeyed fold; the attack is miswritten", len(unkeyedHashes))
	}
	if len(hashes) != n {
		t.Fatalf("%d crafted tuples share %d hashes, want %d distinct", n, len(hashes), n)
	}
}

// CompareKeys must order tuples exactly as bytes.Compare orders their Key
// encodings: over every pair of edge-case tuples, and over random ones.
func TestCompareKeysAgreesWithKeyBytes(t *testing.T) {
	check := func(a, b Tuple) {
		t.Helper()
		want := bytes.Compare(a.AppendKeyTo(nil), b.AppendKeyTo(nil))
		if got := CompareKeys(a, b); got != want {
			t.Fatalf("CompareKeys(%v, %v) = %d, bytes.Compare of keys = %d (%q vs %q)",
				a, b, got, want, a.AppendKeyTo(nil), b.AppendKeyTo(nil))
		}
	}
	vs := hashValues()
	for _, a := range vs {
		for _, b := range vs {
			check(NewTuple(a), NewTuple(b))
			check(NewTuple(a, Int(1)), NewTuple(b))
			check(NewTuple(String("k"), a), NewTuple(String("k"), b, Int(0)))
		}
	}
	rng := rand.New(rand.NewSource(3))
	randValue := func() Value {
		switch rng.Intn(5) {
		case 0:
			return Int(rng.Int63n(2001) - 1000)
		case 1:
			return Int(rng.Int63() - rng.Int63())
		case 2:
			return Float(float64(rng.Intn(200)-100) / 8)
		case 3:
			return String(string(rune('a' + rng.Intn(3))))
		}
		return vs[rng.Intn(len(vs))]
	}
	for i := 0; i < 20000; i++ {
		a := make(Tuple, rng.Intn(3))
		b := make(Tuple, rng.Intn(3))
		for j := range a {
			a[j] = randValue()
		}
		for j := range b {
			b[j] = randValue()
		}
		check(a, b)
	}
}

// CompareKeys sits inside the evaluator's delta sort: it must not allocate.
func TestCompareKeysAllocatesNothing(t *testing.T) {
	a := NewTuple(Int(-12), Float(2.5), String("abc"))
	b := NewTuple(Int(-12), Float(2.25), String("abc"))
	if n := testing.AllocsPerRun(100, func() {
		if CompareKeys(a, b) == 0 {
			t.Fatal("distinct tuples compared equal")
		}
	}); n != 0 {
		t.Fatalf("CompareKeys: %v allocations, want 0", n)
	}
}
