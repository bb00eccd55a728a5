package lsm

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// TestStringEncodingEdgeCases: AppendString keeps the order of strings and
// is prefix-free, over strings built from the bytes the escape and the
// terminator use — so a key prefix built from one name sorts with it and
// never matches the keys of a name that extends it.
func TestStringEncodingEdgeCases(t *testing.T) {
	cases := []string{"", "\x00", "\x00\x00", "a\x00b", "\xff", "a\x01", "\x00\x01", "a", "ab", "a\x00", "\x01"}
	rng := rand.New(rand.NewSource(3))
	for range 2000 {
		b := make([]byte, rng.Intn(6))
		for i := range b {
			b[i] = []byte{0x00, 0x01, 'a', 0xFE, 0xFF}[rng.Intn(5)]
		}
		cases = append(cases, string(b))
	}
	for _, a := range cases {
		ea := AppendString(nil, a)
		for _, b := range cases[:64] {
			eb := AppendString(nil, b)
			if got, want := bytes.Compare(ea, eb), strings.Compare(a, b); got != want {
				t.Fatalf("%q vs %q: encodings compare %d, strings %d", a, b, got, want)
			}
			if a != b && (bytes.HasPrefix(ea, eb) || bytes.HasPrefix(eb, ea)) {
				t.Fatalf("%q and %q: one encoding is a prefix of the other", a, b)
			}
		}
	}
}
