// Package schema defines the relational model used throughout the CDSS:
// attribute types, values (including the labeled nulls produced by
// Skolemizing existential variables in schema mappings), tuples, relations,
// and schemas. Everything downstream — storage, datalog evaluation, update
// translation, and reconciliation — is expressed over these types.
package schema

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the runtime type of a Value.
type Kind uint8

const (
	// KindNull is the zero Value; it never appears in well-formed tuples.
	KindNull Kind = iota
	// KindString is a UTF-8 string value.
	KindString
	// KindInt is a 64-bit signed integer value.
	KindInt
	// KindFloat is a 64-bit IEEE-754 value.
	KindFloat
	// KindBool is a boolean value.
	KindBool
	// KindLabeledNull is a labeled null (Skolem value) introduced for an
	// existential variable during update exchange. Labeled nulls compare
	// equal only to themselves (same Skolem term), following the data
	// exchange semantics of Fagin et al. used by ORCHESTRA.
	KindLabeledNull
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	case KindLabeledNull:
		return "labeled-null"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a single attribute value. Values are immutable and comparable
// with Equal; Key produces a canonical encoding suitable for map keys.
type Value struct {
	kind Kind
	s    string  // string payload, or Skolem term for labeled nulls
	i    int64   // int payload; 0/1 for bool
	f    float64 // float payload
}

// String constructs a string Value.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Int constructs an integer Value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float constructs a float Value.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// Bool constructs a boolean Value.
func Bool(b bool) Value {
	var i int64
	if b {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// LabeledNull constructs a labeled null from a canonical Skolem term, e.g.
// "f_M3.2(act1,7)". Two labeled nulls are equal iff their terms are equal.
func LabeledNull(term string) Value { return Value{kind: KindLabeledNull, s: term} }

// Kind reports the value's runtime type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is the zero (absent) value.
func (v Value) IsNull() bool { return v.kind == KindNull }

// IsLabeledNull reports whether v is a labeled null.
func (v Value) IsLabeledNull() bool { return v.kind == KindLabeledNull }

// Str returns the string payload. It is valid for string and labeled-null
// values; for other kinds it returns "".
func (v Value) Str() string { return v.s }

// IntVal returns the integer payload (0 for non-integer values).
func (v Value) IntVal() int64 { return v.i }

// Equal reports whether two values are identical in kind and payload. It
// agrees with Key, which identifies tuples: -0 and 0 are different floats,
// and every NaN is the same one.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindString, KindLabeledNull:
		return v.s == o.s
	case KindInt, KindBool:
		return v.i == o.i
	case KindFloat:
		return cmpFloat(v.f, o.f) == 0
	default:
		return true
	}
}

// Compare orders values: first by kind, then by payload. It provides a
// total order used for deterministic iteration and canonical encodings,
// and it ties exactly the values Key does: -0 sorts below 0, and NaN
// equals NaN and sorts above +Inf.
func (v Value) Compare(o Value) int {
	if v.kind != o.kind {
		if v.kind < o.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindString, KindLabeledNull:
		return strings.Compare(v.s, o.s)
	case KindInt, KindBool:
		switch {
		case v.i < o.i:
			return -1
		case v.i > o.i:
			return 1
		}
		return 0
	case KindFloat:
		return cmpFloat(v.f, o.f)
	default:
		return 0
	}
}

// cmpFloat is the float order of Compare and Equal: IEEE order, except that
// -0 < 0 and that all NaNs are one value above +Inf.
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		// Equal under IEEE: only ±0 can still differ.
		sa, sb := math.Signbit(a), math.Signbit(b)
		switch {
		case sa == sb:
			return 0
		case sa:
			return -1
		}
		return 1
	}
	// At least one NaN.
	na, nb := math.IsNaN(a), math.IsNaN(b)
	switch {
	case na && nb:
		return 0
	case na:
		return 1
	}
	return -1
}

// Key returns a canonical, injective string encoding of the value, usable
// as a Go map key. Distinct values always produce distinct keys.
func (v Value) Key() string {
	switch v.kind {
	case KindString:
		return "s:" + v.s
	case KindLabeledNull:
		return "n:" + v.s
	case KindInt:
		return "i:" + strconv.FormatInt(v.i, 10)
	case KindBool:
		if v.i == 1 {
			return "b:1"
		}
		return "b:0"
	case KindFloat:
		return "f:" + strconv.FormatFloat(v.f, 'g', -1, 64)
	default:
		return "_"
	}
}

// AppendKeyTo appends the value's canonical Key encoding to b and returns
// the extended slice — the allocation-free form of Key for hot paths.
func (v Value) AppendKeyTo(b []byte) []byte {
	b = append(b, keyKindBytes[v.kind])
	switch v.kind {
	case KindString, KindLabeledNull:
		return append(append(b, ':'), v.s...)
	case KindInt:
		return strconv.AppendInt(append(b, ':'), v.i, 10)
	case KindBool:
		if v.i == 1 {
			return append(b, ':', '1')
		}
		return append(b, ':', '0')
	case KindFloat:
		return strconv.AppendFloat(append(b, ':'), v.f, 'g', -1, 64)
	default:
		return b
	}
}

// String renders the value for display.
func (v Value) String() string {
	switch v.kind {
	case KindString:
		return v.s
	case KindLabeledNull:
		return "⊥" + v.s
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindBool:
		return strconv.FormatBool(v.i == 1)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	default:
		return "NULL"
	}
}

// ErrBadKey reports text ParseValue or ParseTupleKey refuses: not a key
// that Value.Key or Tuple.Key writes.
var ErrBadKey = errors.New("schema: malformed key")

// ParseValue parses the canonical Key encoding back into a Value, and
// refuses any other spelling of a number or boolean ("i:+1", "b:7",
// "f:1.0"): a key it accepts is the Key of the value it returns. It is the
// inverse of Key and is used by the wire codec in the p2p package.
func ParseValue(key string) (Value, error) {
	if key == "_" {
		return Value{}, nil
	}
	if len(key) < 2 || key[1] != ':' {
		return Value{}, fmt.Errorf("%w: value %q", ErrBadKey, key)
	}
	payload := key[2:]
	var v Value
	switch key[0] {
	case 's':
		return String(payload), nil
	case 'n':
		return LabeledNull(payload), nil
	case 'i':
		i, err := strconv.ParseInt(payload, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("%w: int %q: %v", ErrBadKey, key, err)
		}
		v = Int(i)
	case 'b':
		v = Bool(payload == "1")
	case 'f':
		f, err := strconv.ParseFloat(payload, 64)
		if err != nil {
			return Value{}, fmt.Errorf("%w: float %q: %v", ErrBadKey, key, err)
		}
		v = Float(f)
	default:
		return Value{}, fmt.Errorf("%w: unknown value kind in %q", ErrBadKey, key)
	}
	var scratch [32]byte
	if string(v.AppendKeyTo(scratch[:0])) != key {
		return Value{}, fmt.Errorf("%w: value %q is not canonical", ErrBadKey, key)
	}
	return v, nil
}
