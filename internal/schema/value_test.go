package schema

import (
	"cmp"
	"math"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{String("hello"), KindString},
		{Int(42), KindInt},
		{Float(3.14), KindFloat},
		{Bool(true), KindBool},
		{Bool(false), KindBool},
		{LabeledNull("f1(a,b)"), KindLabeledNull},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
	}
	if String("x").Str() != "x" {
		t.Error("Str() lost payload")
	}
	if Int(7).IntVal() != 7 {
		t.Error("IntVal() lost payload")
	}
	if Float(2.5).Equal(Float(2.25)) {
		t.Error("Float lost payload")
	}
	if Bool(true).Equal(Bool(false)) {
		t.Error("Bool lost payload")
	}
	if !LabeledNull("t").IsLabeledNull() {
		t.Error("IsLabeledNull() false for labeled null")
	}
	var zero Value
	if !zero.IsNull() {
		t.Error("zero value should be null")
	}
}

func TestValueEqualDistinguishesKinds(t *testing.T) {
	// "1" as string, int, and labeled null must all be distinct.
	vs := []Value{String("1"), Int(1), LabeledNull("1"), Bool(true), Float(1)}
	for i := range vs {
		for j := range vs {
			if (i == j) != vs[i].Equal(vs[j]) {
				t.Errorf("Equal(%v, %v) = %v, want %v", vs[i], vs[j], vs[i].Equal(vs[j]), i == j)
			}
		}
	}
}

func TestLabeledNullIdentity(t *testing.T) {
	a := LabeledNull("f(1)")
	b := LabeledNull("f(1)")
	c := LabeledNull("f(2)")
	if !a.Equal(b) {
		t.Error("same-term labeled nulls must be equal")
	}
	if a.Equal(c) {
		t.Error("different-term labeled nulls must differ")
	}
}

func TestValueKeyInjective(t *testing.T) {
	vs := []Value{
		String(""), String("a"), String("i:1"), Int(1), Int(-1), Int(0),
		Float(0), Float(1), Float(-1.5), Bool(true), Bool(false),
		LabeledNull(""), LabeledNull("x"), String("x"),
	}
	seen := map[string]Value{}
	for _, v := range vs {
		k := v.Key()
		if prev, ok := seen[k]; ok && !prev.Equal(v) {
			t.Errorf("key collision: %v and %v both encode to %q", prev, v, k)
		}
		seen[k] = v
	}
}

func TestParseValueRoundTrip(t *testing.T) {
	vs := []Value{
		String("hello world"), String(""), Int(math.MaxInt64), Int(math.MinInt64),
		Float(1e-300), Float(-2.5), Bool(true), Bool(false), LabeledNull("f_M1.2(s:abc,i:9)"),
	}
	for _, v := range vs {
		got, err := ParseValue(v.Key())
		if err != nil {
			t.Fatalf("ParseValue(%q): %v", v.Key(), err)
		}
		if !got.Equal(v) {
			t.Errorf("round trip %v -> %q -> %v", v, v.Key(), got)
		}
	}
	if _, err := ParseValue("zz"); err == nil {
		t.Error("ParseValue accepted malformed key")
	}
	if _, err := ParseValue("i:notanumber"); err == nil {
		t.Error("ParseValue accepted bad int")
	}
}

func TestValueCompareTotalOrder(t *testing.T) {
	vs := []Value{
		String("a"), String("b"), Int(1), Int(2), Float(0.5), Bool(false), Bool(true),
		LabeledNull("a"), LabeledNull("b"),
	}
	for i := range vs {
		for j := range vs {
			cij := vs[i].Compare(vs[j])
			cji := vs[j].Compare(vs[i])
			if cij != -cji {
				t.Errorf("Compare not antisymmetric for %v,%v: %d vs %d", vs[i], vs[j], cij, cji)
			}
			if (cij == 0) != vs[i].Equal(vs[j]) {
				t.Errorf("Compare==0 disagrees with Equal for %v,%v", vs[i], vs[j])
			}
		}
	}
}

// Property: string round trip through Key/ParseValue is the identity.
func TestQuickStringRoundTrip(t *testing.T) {
	f := func(s string) bool {
		v, err := ParseValue(String(s).Key())
		return err == nil && v.Equal(String(s))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: int round trip and ordering consistency.
func TestQuickIntProperties(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int(a), Int(b)
		rt, err := ParseValue(va.Key())
		if err != nil || !rt.Equal(va) {
			return false
		}
		switch {
		case a < b:
			return va.Compare(vb) < 0
		case a > b:
			return va.Compare(vb) > 0
		default:
			return va.Compare(vb) == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: keys are injective across string/labeled-null payload space.
func TestQuickKeyInjective(t *testing.T) {
	f := func(s string, asNull bool, s2 string, asNull2 bool) bool {
		var v1, v2 Value
		if asNull {
			v1 = LabeledNull(s)
		} else {
			v1 = String(s)
		}
		if asNull2 {
			v2 = LabeledNull(s2)
		} else {
			v2 = String(s2)
		}
		return (v1.Key() == v2.Key()) == v1.Equal(v2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Equal and Compare tie exactly the floats Key ties: -0 and 0 are two
// values with -0 first, and every NaN is one value, above +Inf.
func TestFloatOrderFollowsKey(t *testing.T) {
	negNaN := math.Copysign(math.NaN(), -1)
	asc := []float64{math.Inf(-1), -1, math.Copysign(0, -1), 0, 1, math.Inf(1), math.NaN()}
	for i, a := range asc {
		for j, b := range asc {
			va, vb := Float(a), Float(b)
			if got, want := va.Compare(vb), cmp.Compare(i, j); got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", va, vb, got, want)
			}
			if va.Equal(vb) != (va.Key() == vb.Key()) {
				t.Errorf("Equal(%v, %v) = %v, but keys %q and %q", va, vb, va.Equal(vb), va.Key(), vb.Key())
			}
		}
	}
	nan := Float(math.NaN())
	if other := Float(negNaN); !nan.Equal(other) || nan.Compare(other) != 0 || nan.Key() != other.Key() {
		t.Errorf("NaNs of two signs differ: Equal %v, Compare %d", nan.Equal(other), nan.Compare(other))
	}
}
