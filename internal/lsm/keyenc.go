// Package lsm is the durable storage tier beneath the CDSS: a
// log-structured merge engine with an order-preserving key encoding for
// schema tuples, a segmented CRC-framed write-ahead log with batched fsync,
// an ordered multi-version memtable flushed to sorted checksummed SSTable
// segments (sparse index + bloom filter), size-tiered compaction, and crash
// recovery from a manifest + WAL replay. The upper layers (the p2p published-update
// archive and peer instance checkpoints) store their keyspaces side by side
// in one DB so a whole deployment shares a single WAL and group-commit
// window. See DESIGN.md §11.
package lsm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"orchestra/internal/schema"
)

// The key encoding is order-preserving: for any two tuples a and b,
// bytes.Compare(appendTuple(nil, a), appendTuple(nil, b)) equals
// a.Compare(b). That is what lets SSTable segments keep index orderings on
// disk — a range scan
// over an encoded prefix enumerates tuples in exactly the order the
// in-memory tables and iterator pipelines expect.
//
// Per value: one kind tag byte (schema.Kind values already sort in
// Value.Compare order), then a payload:
//
//   - strings and labeled nulls: raw bytes with 0x00 escaped as 0x00 0xFF,
//     terminated by 0x00 0x01 — the terminator sorts below every escaped or
//     literal byte, so prefixes sort first;
//   - ints and bools: 8-byte big-endian with the sign bit flipped;
//   - floats: IEEE-754 bits, sign-flipped for positives and complemented
//     for negatives (the classic total-order trick). -0.0 sorts below +0.0
//     and the NaN that math.NaN and strconv.ParseFloat return above +Inf,
//     as in Value.Compare.
//
// Values are self-delimiting, so tuple encodings concatenate and a tuple
// that is a strict prefix of another sorts first — exactly Tuple.Compare.

const (
	stringTerm1 = 0x00
	stringTerm2 = 0x01
	stringEsc   = 0xFF
)

// AppendString appends the order-preserving escaped-and-terminated encoding
// of s (no kind tag). Composite-key layers use it to build prefixes such as
// relation names that must sort correctly ahead of tuple bytes.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if s[i] == 0x00 {
			b = append(b, 0x00, stringEsc)
		} else {
			b = append(b, s[i])
		}
	}
	return append(b, stringTerm1, stringTerm2)
}

// ErrBadKey reports key bytes decodeValue, decodeTuple or decodeString
// refuses: cut short, holding an unknown kind tag or escape, or not in the
// one form the encoder writes (a bool byte other than 0 or 1). A value
// they accept re-encodes to exactly the bytes it was decoded from.
var ErrBadKey = errors.New("lsm: malformed key encoding")

// decodeString decodes one AppendString-encoded string from the front of b,
// returning the string and the remaining bytes.
func decodeString(b []byte) (string, []byte, error) {
	var out []byte
	for i := 0; i < len(b); {
		c := b[i]
		if c != 0x00 {
			out = append(out, c)
			i++
			continue
		}
		if i+1 >= len(b) {
			return "", nil, fmt.Errorf("%w: truncated string", ErrBadKey)
		}
		switch b[i+1] {
		case stringEsc:
			out = append(out, 0x00)
			i += 2
		case stringTerm2:
			return string(out), b[i+2:], nil
		default:
			return "", nil, fmt.Errorf("%w: string escape 0x%02x", ErrBadKey, b[i+1])
		}
	}
	return "", nil, fmt.Errorf("%w: unterminated string", ErrBadKey)
}

// appendValue appends the order-preserving encoding of one value.
func appendValue(b []byte, v schema.Value) []byte {
	b = append(b, byte(v.Kind()))
	switch v.Kind() {
	case schema.KindString, schema.KindLabeledNull:
		return AppendString(b, v.Str())
	case schema.KindInt:
		return binary.BigEndian.AppendUint64(b, uint64(v.IntVal())^(1<<63))
	case schema.KindBool:
		if v.BoolVal() {
			return append(b, 1)
		}
		return append(b, 0)
	case schema.KindFloat:
		u := math.Float64bits(v.FloatVal())
		if u&(1<<63) != 0 {
			u = ^u
		} else {
			u |= 1 << 63
		}
		return binary.BigEndian.AppendUint64(b, u)
	default: // KindNull: tag alone
		return b
	}
}

// decodeValue decodes one value off the front of b, returning the rest.
// Every failure wraps ErrBadKey.
func decodeValue(b []byte) (schema.Value, []byte, error) {
	if len(b) == 0 {
		return schema.Value{}, nil, fmt.Errorf("%w: empty value", ErrBadKey)
	}
	kind := schema.Kind(b[0])
	b = b[1:]
	switch kind {
	case schema.KindString, schema.KindLabeledNull:
		s, rest, err := decodeString(b)
		if err != nil {
			return schema.Value{}, nil, err
		}
		if kind == schema.KindString {
			return schema.String(s), rest, nil
		}
		return schema.LabeledNull(s), rest, nil
	case schema.KindInt:
		if len(b) < 8 {
			return schema.Value{}, nil, fmt.Errorf("%w: truncated int", ErrBadKey)
		}
		u := binary.BigEndian.Uint64(b[:8])
		return schema.Int(int64(u ^ (1 << 63))), b[8:], nil
	case schema.KindBool:
		if len(b) < 1 {
			return schema.Value{}, nil, fmt.Errorf("%w: truncated bool", ErrBadKey)
		}
		if b[0] > 1 {
			return schema.Value{}, nil, fmt.Errorf("%w: bool byte 0x%02x", ErrBadKey, b[0])
		}
		return schema.Bool(b[0] == 1), b[1:], nil
	case schema.KindFloat:
		if len(b) < 8 {
			return schema.Value{}, nil, fmt.Errorf("%w: truncated float", ErrBadKey)
		}
		u := binary.BigEndian.Uint64(b[:8])
		if u&(1<<63) != 0 {
			u &^= 1 << 63
		} else {
			u = ^u
		}
		return schema.Float(math.Float64frombits(u)), b[8:], nil
	case schema.KindNull:
		return schema.Value{}, b, nil
	default:
		return schema.Value{}, nil, fmt.Errorf("%w: unknown value kind %d", ErrBadKey, kind)
	}
}

// appendTuple appends the order-preserving encoding of a whole tuple.
func appendTuple(b []byte, t schema.Tuple) []byte {
	for _, v := range t {
		b = appendValue(b, v)
	}
	return b
}

// decodeTuple decodes a tuple encoding produced by appendTuple, consuming
// b entirely. Every failure wraps ErrBadKey.
func decodeTuple(b []byte) (schema.Tuple, error) {
	// One allocation at the exact length, as in schema.ParseTupleKey.
	var buf [8]schema.Value
	t := buf[:0]
	for len(b) > 0 {
		v, rest, err := decodeValue(b)
		if err != nil {
			return nil, err
		}
		t = append(t, v)
		b = rest
	}
	if len(t) == 0 {
		return nil, nil
	}
	return slices.Clone(t), nil
}

// PrefixEnd returns the tightest key upper-bounding every key with the
// given prefix — the hi of a [prefix, PrefixEnd(prefix)) range scan. nil
// means "to the end of the keyspace".
func PrefixEnd(p []byte) []byte {
	out := append([]byte(nil), p...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] != 0xFF {
			out[i]++
			return out[:i+1]
		}
	}
	return nil
}
