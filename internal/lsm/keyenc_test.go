package lsm

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"orchestra/internal/schema"
)

func randValue(rng *rand.Rand) schema.Value {
	switch rng.Intn(6) {
	case 0:
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = byte(rng.Intn(256)) // arbitrary bytes, including 0x00 and 0xFF
		}
		return schema.String(string(b))
	case 1:
		return schema.LabeledNull(string(rune('a' + rng.Intn(4))))
	case 2:
		return schema.Int(rng.Int63n(2000) - 1000)
	case 3:
		return schema.Bool(rng.Intn(2) == 1)
	case 4:
		f := math.Trunc(rng.NormFloat64() * 100)
		return schema.Float(f)
	default:
		return schema.Int(int64(rng.Intn(5))) // dense collisions
	}
}

func randTuple(rng *rand.Rand) schema.Tuple {
	t := make(schema.Tuple, 1+rng.Intn(4))
	for i := range t {
		t[i] = randValue(rng)
	}
	return t
}

// The load-bearing property: bytewise order of encodings is exactly
// Tuple.Compare, so on-disk segment order is index order.
func TestTupleEncodingOrderPreserving(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		a, b := randTuple(rng), randTuple(rng)
		ea, eb := appendTuple(nil, a), appendTuple(nil, b)
		want := a.Compare(b)
		got := bytes.Compare(ea, eb)
		if sign(got) != sign(want) {
			t.Fatalf("order mismatch: %v vs %v: Compare=%d bytes.Compare=%d\n%x\n%x", a, b, want, got, ea, eb)
		}
	}
}

func TestTupleEncodingRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		tu := randTuple(rng)
		enc := appendTuple(nil, tu)
		back, err := decodeTuple(enc)
		if err != nil {
			t.Fatalf("decode %v: %v", tu, err)
		}
		if !tu.Equal(back) {
			t.Fatalf("round trip: %v -> %v", tu, back)
		}
	}
}

func TestTuplePrefixSortsFirst(t *testing.T) {
	a := schema.NewTuple(schema.String("ab"))
	b := schema.NewTuple(schema.String("ab"), schema.Int(0))
	if bytes.Compare(appendTuple(nil, a), appendTuple(nil, b)) >= 0 {
		t.Fatal("prefix tuple must sort first")
	}
	// A string that extends another must also sort after it.
	c := schema.NewTuple(schema.String("ab\x00"))
	if bytes.Compare(appendTuple(nil, a), appendTuple(nil, c)) >= 0 {
		t.Fatal("extended string must sort after its prefix")
	}
}

func TestStringEncodingEdgeCases(t *testing.T) {
	cases := []string{"", "\x00", "\x00\x00", "a\x00b", "\xff", "a\x01", "\x00\x01"}
	for _, s := range cases {
		enc := AppendString(nil, s)
		got, rest, err := decodeString(enc)
		if err != nil || got != s || len(rest) != 0 {
			t.Fatalf("string %q: got %q rest %d err %v", s, got, len(rest), err)
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

// TestDecodeRefusesNonCanonicalBytes: bytes the encoder never writes are
// refused with ErrBadKey rather than read as some nearby value.
func TestDecodeRefusesNonCanonicalBytes(t *testing.T) {
	for _, b := range [][]byte{
		{byte(schema.KindBool), 0x07},
		{byte(schema.KindBool), 0x02},
		{byte(schema.KindBool)},
		{byte(schema.KindInt), 0x80},
		{byte(schema.KindString), 'a', 0x00, 0x05},
		{byte(schema.KindString), 'a'},
		{0x7f},
	} {
		if tu, err := decodeTuple(b); !errors.Is(err, ErrBadKey) {
			t.Errorf("decodeTuple(% x) = %v, %v; want ErrBadKey", b, tu, err)
		}
	}
	if _, _, err := decodeString([]byte{'a', 0x00}); !errors.Is(err, ErrBadKey) {
		t.Errorf("decodeString of a cut terminator: %v, want ErrBadKey", err)
	}
}

// FuzzDecodeTuple holds decodeTuple to its contract on arbitrary bytes: a
// typed error, or a tuple that re-encodes to exactly the input.
func FuzzDecodeTuple(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 8; i++ {
		f.Add(appendTuple(nil, randTuple(rng)))
	}
	f.Add([]byte{byte(schema.KindBool), 0x07})
	f.Add([]byte{byte(schema.KindString), 0x00, 0xff, 0x00, 0x01, byte(schema.KindNull)})
	f.Fuzz(func(t *testing.T, b []byte) {
		tu, err := decodeTuple(b)
		if err != nil {
			if !errors.Is(err, ErrBadKey) {
				t.Fatalf("decodeTuple(% x): untyped error %v", b, err)
			}
			return
		}
		if got := appendTuple(nil, tu); !bytes.Equal(got, b) {
			t.Fatalf("decodeTuple(% x) = %v, which re-encodes as % x", b, tu, got)
		}
	})
}
