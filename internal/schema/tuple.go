package schema

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Tuple is an ordered list of values conforming to some relation's arity.
// Tuples are treated as immutable once constructed; callers that need to
// modify a tuple should Clone it first.
type Tuple []Value

// NewTuple builds a tuple from values.
func NewTuple(vs ...Value) Tuple { return Tuple(vs) }

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Equal reports component-wise equality.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically by Value.Compare.
func (t Tuple) Compare(o Tuple) int {
	n := len(t)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if c := t[i].Compare(o[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(o):
		return -1
	case len(t) > len(o):
		return 1
	}
	return 0
}

// Key returns a canonical injective encoding of the whole tuple, usable as
// a map key. Component keys are length-prefixed so that no two distinct
// tuples collide. Results are memoized in a bounded process-wide cache
// (keycache.go): every layer of the update-exchange path re-encodes the
// tuples it is handed, and all but the first encoding of a hot tuple is a
// cache hit.
func (t Tuple) Key() string {
	if len(t) == 0 {
		return ""
	}
	return t.memoizedKey()
}

// AppendKeyTo appends the tuple's canonical Key encoding to b and returns
// the extended slice — the allocation-free form of Key for hot paths. The
// encoding is identical to Key: length-prefixed component keys.
func (t Tuple) AppendKeyTo(b []byte) []byte {
	for _, v := range t {
		b = AppendComponentKeyTo(b, v)
	}
	return b
}

// AppendComponentKeyTo appends one length-prefixed component of a tuple
// key — the unit Tuple.AppendKeyTo and ParseTupleKey are built from. It is
// exported so index layers can assemble projection keys (and whole-tuple
// membership keys) with the identical encoding, rather than duplicating it.
func AppendComponentKeyTo(b []byte, v Value) []byte {
	var scratch [48]byte
	vk := v.AppendKeyTo(scratch[:0])
	b = strconv.AppendInt(b, int64(len(vk)), 10)
	b = append(b, '|')
	return append(b, vk...)
}

// Project returns the subtuple at the given column positions.
func (t Tuple) Project(cols []int) Tuple {
	p := make(Tuple, len(cols))
	for i, c := range cols {
		p[i] = t[c]
	}
	return p
}

// HasLabeledNull reports whether any component is a labeled null.
func (t Tuple) HasLabeledNull() bool {
	for _, v := range t {
		if v.IsLabeledNull() {
			return true
		}
	}
	return false
}

// String renders the tuple as (v1, v2, ...).
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// ParseTupleKey decodes a canonical tuple key produced by Tuple.Key, and
// refuses any other text: a key it accepts is the Key of the tuple it
// returns.
func ParseTupleKey(key string) (Tuple, error) {
	// Components collect in a stack buffer and the result is copied out
	// once, at its exact length: recovery parses every stored tuple, and
	// growing the slice by append cost three allocations per tuple.
	var buf [8]Value
	t, err := AppendParsedTupleKey(buf[:0], key)
	if err != nil || len(t) == 0 {
		return nil, err
	}
	return slices.Clone(t), nil
}

// AppendParsedTupleKey is ParseTupleKey appending the components to dst:
// a decoder that parses thousands of tuples carves them from one buffer.
// On error dst's contents past its original length are unspecified.
func AppendParsedTupleKey(dst Tuple, key string) (Tuple, error) {
	for len(key) > 0 {
		bar := strings.IndexByte(key, '|')
		if bar < 0 {
			return nil, fmt.Errorf("%w: tuple %q", ErrBadKey, key)
		}
		n, err := strconv.Atoi(key[:bar])
		// Atoi also reads "+3", "-0" and "03", which Key never writes.
		if err != nil || key[0] == '+' || key[0] == '-' || key[0] == '0' && bar > 1 {
			return nil, fmt.Errorf("%w: component length %q", ErrBadKey, key[:bar])
		}
		if bar+1+n > len(key) {
			return nil, fmt.Errorf("%w: truncated tuple %q", ErrBadKey, key)
		}
		v, verr := ParseValue(key[bar+1 : bar+1+n])
		if verr != nil {
			return nil, verr
		}
		dst = append(dst, v)
		key = key[bar+1+n:]
	}
	return dst, nil
}
