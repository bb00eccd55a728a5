package schema

import (
	"bytes"
	"cmp"
	"hash/maphash"
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// Structural hashing and key-order comparison: the two things the
// evaluator needs from a tuple's identity without encoding its Key. Hash
// agrees with Equal (equal tuples hash alike), and CompareKeys orders tuples
// exactly as bytes.Compare orders their Key encodings, so hash-addressed
// extents can keep every storage-key order the string-keyed ones had.

// hashSeed (for string payloads) and the two fold secrets are drawn
// independently per process, and every fold mixes both secrets in, so no
// value of any kind can be crafted to land on a chosen hash chain. The
// secrets must not come from hashSeed: a string whose seeded hash equals a
// secret would zero the fold. No hash value is ever persisted.
var (
	hashSeed                 = maphash.MakeSeed()
	hashSecret0, hashSecret1 = secretWord(), secretWord()
)

func secretWord() uint64 { return maphash.Bytes(maphash.MakeSeed(), nil) }

// HashStart is the fold state Tuple.Hash begins from; a hash over a column
// subset folds those values, in order, from it.
const HashStart uint64 = 0x9e3779b97f4a7c15

// canonicalNaN stands in for every NaN's bits: Equal treats all NaNs as one
// value, so they must hash as one.
const canonicalNaN = 0x7ff8000000000001

// mixHash folds the word x into h: both are xored with a secret and
// multiplied to 128 bits, whose halves are xor-folded (the wyhash mixer).
// The product collapses to zero only when h or x equals its secret, which
// an input cannot aim at.
func mixHash(h, x uint64) uint64 {
	hi, lo := bits.Mul64(h^hashSecret0, x^hashSecret1)
	return hi ^ lo
}

// FoldHash folds v into the hash state h. It agrees with Equal: every NaN
// folds alike, -0 and 0 fold apart, and the kind is folded in, so Int(1)
// and Float(1), or String("x") and LabeledNull("x"), stay distinct.
func (v Value) FoldHash(h uint64) uint64 {
	h = mixHash(h, uint64(v.kind))
	switch v.kind {
	case KindString, KindLabeledNull:
		return mixHash(h, maphash.String(hashSeed, v.s))
	case KindInt, KindBool:
		return mixHash(h, uint64(v.i))
	case KindFloat:
		b := math.Float64bits(v.f)
		if v.f != v.f {
			b = canonicalNaN
		}
		return mixHash(h, b)
	default:
		return h
	}
}

// Hash returns a 64-bit structural hash of the tuple that agrees with
// Equal. Distinct tuples may collide; callers settle a shared hash with
// Equal.
func (t Tuple) Hash() uint64 {
	h := HashStart
	for _, v := range t {
		h = v.FoldHash(h)
	}
	return h
}

// CompareKeys orders two tuples exactly as bytes.Compare orders their Key
// encodings, without building either key. Components are self-delimiting
// (length-prefixed), so the keys first differ inside the first component
// that differs, and one key is a prefix of the other only when one tuple
// is a prefix of the other.
func CompareKeys(a, b Tuple) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if c := compareComponentKeys(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// compareComponentKeys orders two values as bytes.Compare orders their
// length-prefixed component keys (AppendComponentKeyTo). Every kind but
// float decides from kind, encoded length and payload; floats are encoded
// into stack buffers.
func compareComponentKeys(v, w Value) int {
	if v.Equal(w) {
		return 0
	}
	var vb, wb [32]byte
	var vk, wk []byte
	if v.kind == KindFloat {
		vk = v.AppendKeyTo(vb[:0])
	}
	if w.kind == KindFloat {
		wk = w.AppendKeyTo(wb[:0])
	}
	if vn, wn := keyLen(v, vk), keyLen(w, wk); vn != wn {
		// Different lengths: the decimal prefixes (each ended by '|')
		// differ, and neither is a prefix of the other.
		var pa, pb [24]byte
		return bytes.Compare(append(strconv.AppendInt(pa[:0], int64(vn), 10), '|'),
			append(strconv.AppendInt(pb[:0], int64(wn), 10), '|'))
	}
	if kv, kw := keyKindBytes[v.kind], keyKindBytes[w.kind]; kv != kw {
		return cmp.Compare(kv, kw)
	}
	switch v.kind {
	case KindString, KindLabeledNull:
		return strings.Compare(v.s, w.s)
	case KindBool:
		return cmp.Compare(v.i, w.i)
	case KindInt:
		// Equal-length decimals: '-' sorts below every digit, and among
		// negatives the larger magnitude spells the larger string.
		if v.i < 0 && w.i < 0 {
			return cmp.Compare(w.i, v.i)
		}
		return cmp.Compare(v.i, w.i)
	}
	return bytes.Compare(vk, wk)
}

// keyLen is the length of v's Key encoding; enc is that encoding for a
// float and ignored otherwise.
func keyLen(v Value, enc []byte) int {
	switch v.kind {
	case KindString, KindLabeledNull:
		return 2 + len(v.s)
	case KindBool:
		return 3
	case KindInt:
		n, x := 3, v.i // "i:" and the first digit
		if x < 0 {
			n++ // the sign
		}
		for x >= 10 || x <= -10 {
			x /= 10
			n++
		}
		return n
	case KindFloat:
		return len(enc)
	default:
		return 1
	}
}

// keyKindBytes maps each kind to the first byte of its Key encoding; it is
// the one statement of those bytes, shared by AppendKeyTo and
// compareComponentKeys.
var keyKindBytes = [...]byte{
	KindNull:        '_',
	KindString:      's',
	KindInt:         'i',
	KindFloat:       'f',
	KindBool:        'b',
	KindLabeledNull: 'n',
}
