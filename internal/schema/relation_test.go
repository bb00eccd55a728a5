package schema

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func seqRel(t *testing.T) *Relation {
	t.Helper()
	r, err := NewRelation("S",
		[]Attribute{{"oid", KindInt}, {"pid", KindInt}, {"seq", KindString}},
		"oid", "pid")
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewRelationValidation(t *testing.T) {
	if _, err := NewRelation("R", []Attribute{{"a", KindInt}, {"a", KindString}}); err == nil {
		t.Error("duplicate attribute accepted")
	}
	if _, err := NewRelation("R", []Attribute{{"", KindInt}}); err == nil {
		t.Error("unnamed attribute accepted")
	}
	if _, err := NewRelation("R", []Attribute{{"a", KindInt}}, "nope"); err == nil {
		t.Error("unknown key column accepted")
	}
}

func TestRelationKeyOf(t *testing.T) {
	r := seqRel(t)
	tup := NewTuple(Int(1), Int(2), String("ACGT"))
	key := r.KeyOf(tup)
	if !key.Equal(NewTuple(Int(1), Int(2))) {
		t.Errorf("KeyOf = %v", key)
	}
	// No declared key: whole tuple is the key.
	r2 := MustRelation("T", []Attribute{{"x", KindInt}, {"y", KindInt}})
	if !r2.KeyOf(tup[:2]).Equal(tup[:2]) {
		t.Error("implicit whole-tuple key wrong")
	}
}

func TestRelationValidate(t *testing.T) {
	r := seqRel(t)
	ok := NewTuple(Int(1), Int(2), String("ACGT"))
	if err := r.Validate(ok); err != nil {
		t.Errorf("valid tuple rejected: %v", err)
	}
	if err := r.Validate(NewTuple(Int(1), Int(2))); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := r.Validate(NewTuple(Int(1), String("x"), String("s"))); err == nil {
		t.Error("wrong type accepted")
	}
	// Labeled nulls are allowed anywhere (data exchange semantics).
	withNull := NewTuple(Int(1), LabeledNull("f(1)"), String("ACGT"))
	if err := r.Validate(withNull); err != nil {
		t.Errorf("labeled null rejected: %v", err)
	}
	var zero Value
	if err := r.Validate(NewTuple(Int(1), Int(2), zero)); err == nil {
		t.Error("null value accepted")
	}
}

func TestSchemaAddLookup(t *testing.T) {
	s := NewSchema("Σ1")
	r := seqRel(t)
	if err := s.AddRelation(r); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRelation(r); err == nil {
		t.Error("duplicate relation accepted")
	}
	if s.Relation("S") != r {
		t.Error("lookup failed")
	}
	if s.Relation("missing") != nil {
		t.Error("missing relation should be nil")
	}
	s.MustAddRelation(MustRelation("A", []Attribute{{"x", KindInt}}))
	rels := s.Relations()
	if len(rels) != 2 || rels[0].Name != "A" || rels[1].Name != "S" {
		t.Errorf("Relations() = %v, want sorted [A S]", rels)
	}
	if !strings.Contains(s.String(), "Σ1{") {
		t.Errorf("String() = %q", s.String())
	}
}

func TestTupleBasics(t *testing.T) {
	a := NewTuple(Int(1), String("x"))
	b := a.Clone()
	if !a.Equal(b) {
		t.Error("clone not equal")
	}
	b[0] = Int(2)
	if a.Equal(b) {
		t.Error("clone aliases original")
	}
	if a.Equal(NewTuple(Int(1))) {
		t.Error("different arity equal")
	}
	p := NewTuple(Int(1), String("x"), Bool(true)).Project([]int{2, 0})
	if !p.Equal(NewTuple(Bool(true), Int(1))) {
		t.Errorf("Project = %v", p)
	}
	if !NewTuple(Int(1), LabeledNull("z")).HasLabeledNull() {
		t.Error("HasLabeledNull false negative")
	}
	if NewTuple(Int(1)).HasLabeledNull() {
		t.Error("HasLabeledNull false positive")
	}
	if got := NewTuple(Int(1), String("x")).String(); got != "(1, x)" {
		t.Errorf("String() = %q", got)
	}
}

func TestTupleCompare(t *testing.T) {
	a := NewTuple(Int(1), String("a"))
	b := NewTuple(Int(1), String("b"))
	c := NewTuple(Int(1))
	if a.Compare(b) >= 0 || b.Compare(a) <= 0 {
		t.Error("lexicographic order wrong")
	}
	if c.Compare(a) >= 0 {
		t.Error("prefix should sort before extension")
	}
	if a.Compare(a) != 0 {
		t.Error("self-compare nonzero")
	}
}

func TestTupleKeyRoundTrip(t *testing.T) {
	tuples := []Tuple{
		{},
		NewTuple(Int(1), String("x|y"), Bool(true)),
		NewTuple(LabeledNull("f(1|2)"), Float(1.5)),
		NewTuple(String(""), String("")),
	}
	for _, tu := range tuples {
		got, err := ParseTupleKey(tu.Key())
		if err != nil {
			t.Fatalf("ParseTupleKey(%q): %v", tu.Key(), err)
		}
		if !got.Equal(tu) {
			t.Errorf("round trip %v -> %v", tu, got)
		}
	}
	if _, err := ParseTupleKey("notakey"); err == nil {
		t.Error("malformed tuple key accepted")
	}
}

// Property: tuple keys are injective — two tuples collide iff equal.
func TestQuickTupleKeyInjective(t *testing.T) {
	f := func(a1, a2, b1, b2 string) bool {
		ta := NewTuple(String(a1), String(a2))
		tb := NewTuple(String(b1), String(b2))
		return (ta.Key() == tb.Key()) == ta.Equal(tb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: tuple key round trip is the identity for mixed-kind tuples.
func TestQuickTupleRoundTrip(t *testing.T) {
	f := func(s string, i int64, b bool) bool {
		tu := NewTuple(String(s), Int(i), Bool(b), LabeledNull(s+"!"))
		got, err := ParseTupleKey(tu.Key())
		return err == nil && got.Equal(tu)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// ParseTupleKey refuses every spelling of a tuple but the one Key writes:
// a sign or a leading zero in a component length, a boolean other than 0
// or 1, a signed or zero-padded int, and a float in any form but the
// shortest.
func TestParseTupleKeyRefusesNonCanonicalKeys(t *testing.T) {
	for _, key := range []string{
		"3|b:7", "4|i:+1", "4|i:01", "4|i:-0", "5|f:1.0", "5|f:inf", "5|f:nan", "7|f:1e+00",
		"03|s:x", "+3|s:x", "-0|", "3|s:x03|s:y",
	} {
		if got, err := ParseTupleKey(key); !errors.Is(err, ErrBadKey) {
			t.Errorf("ParseTupleKey(%q) = %v, %v; want ErrBadKey", key, got, err)
		}
	}
	// The floats Compare orders only by following their keys round-trip.
	for _, tu := range []Tuple{
		NewTuple(Float(math.NaN())), NewTuple(Float(0)), NewTuple(Float(math.Copysign(0, -1))),
		NewTuple(Float(1), Int(-3), Bool(false), Float(math.Inf(-1))),
	} {
		got, err := ParseTupleKey(tu.Key())
		if err != nil || got.Key() != tu.Key() {
			t.Errorf("ParseTupleKey(%q) = %v (key %q), %v", tu.Key(), got, got.Key(), err)
		}
	}
}

// FuzzParseTupleKey: whatever text it is given, ParseTupleKey either refuses
// it with ErrBadKey or returns the tuple whose Key is exactly that text.
func FuzzParseTupleKey(f *testing.F) {
	for _, tu := range []Tuple{
		{},
		NewTuple(Int(1), String("x|y"), Bool(true)),
		NewTuple(LabeledNull("f(1|2)"), Float(1.5), Float(math.NaN()), Float(math.Copysign(0, -1))),
		NewTuple(Value{}, Int(math.MinInt64), Float(1e300)),
	} {
		f.Add(tu.Key())
	}
	f.Add("3|b:7")
	f.Add("4|i:+1")
	f.Add("5|f:1.0")
	f.Fuzz(func(t *testing.T, key string) {
		tu, err := ParseTupleKey(key)
		if err != nil {
			if !errors.Is(err, ErrBadKey) {
				t.Fatalf("untyped error for %q: %v", key, err)
			}
			return
		}
		if got := tu.Key(); got != key {
			t.Fatalf("ParseTupleKey(%q) = %v, whose key is %q", key, tu, got)
		}
	})
}
