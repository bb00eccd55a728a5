package datalog

import (
	"context"
	"math"
	"slices"
	"testing"

	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

// Joins, filters and the extent order all identify floats as tuple keys
// do: -0 and 0 are two values, every NaN is one.
func TestFloatsFollowTupleIdentity(t *testing.T) {
	negZero, nan := schema.Float(math.Copysign(0, -1)), schema.Float(math.NaN())
	zero, one := schema.Float(0), schema.Float(1)
	edb := NewDB()
	edb.Add("R", schema.NewTuple(nan, nan), provenance.NewVar("r1"))
	edb.Add("R", schema.NewTuple(negZero, zero), provenance.NewVar("r2"))
	edb.Add("S", schema.NewTuple(nan), provenance.NewVar("s1"))
	edb.Add("S", schema.NewTuple(negZero), provenance.NewVar("s2"))
	for i, v := range []schema.Value{nan, negZero, zero, one} {
		edb.Add("G", schema.NewTuple(v), provenance.NewVar(provenance.Var("g"+string(rune('0'+i)))))
	}
	prog := &Program{Rules: []Rule{
		// A repeated variable and an index join agree.
		{ID: "diag", Head: NewHead("V", HV("x")), Body: []Literal{Pos(NewAtom("R", V("x"), V("x")))}},
		{ID: "join", Head: NewHead("J", HV("x")), Body: []Literal{
			Pos(NewAtom("R", V("x"), V("y"))), Pos(NewAtom("S", V("y")))}},
		// x = 0.0 is pushed into the probe key; x != 0.0 is not.
		{ID: "eq", Head: NewHead("E", HV("x")), Body: []Literal{
			Pos(NewAtom("G", V("x"))), Cmp(V("x"), OpEq, C(zero))}},
		{ID: "ne", Head: NewHead("N", HV("x")), Body: []Literal{
			Pos(NewAtom("G", V("x"))), Cmp(V("x"), OpNe, C(zero))}},
		{ID: "range", Head: NewHead("W", HV("x")), Body: []Literal{
			Pos(NewAtom("G", V("x"))), Cmp(V("x"), OpLe, C(zero)), Cmp(V("x"), OpGe, C(zero))}},
	}}
	out, err := EvalCtx(context.Background(), prog, edb, Options{Provenance: true})
	if err != nil {
		t.Fatal(err)
	}
	keys := func(pred string) []string {
		var ks []string
		for _, f := range out.Rel(pred).Facts() {
			ks = append(ks, f.Tuple.Key())
		}
		return ks
	}
	nanKey, negZeroKey, zeroKey := schema.NewTuple(nan).Key(), schema.NewTuple(negZero).Key(), schema.NewTuple(zero).Key()
	oneKey := schema.NewTuple(one).Key()
	for _, c := range []struct {
		pred string
		want []string
	}{
		{"V", []string{nanKey}},
		{"J", []string{nanKey}},
		{"E", []string{zeroKey}},
		{"N", []string{negZeroKey, oneKey, nanKey}},
		{"W", []string{zeroKey}},
	} {
		if got := keys(c.pred); !slices.Equal(got, c.want) {
			t.Errorf("%s = %q, want %q", c.pred, got, c.want)
		}
	}
	// The extent order is a total order: one NaN and one -0 cannot move.
	first := keys("G")
	if want := []string{negZeroKey, zeroKey, oneKey, nanKey}; !slices.Equal(first, want) {
		t.Fatalf("G in order %q, want %q", first, want)
	}
	for i := 0; i < 200; i++ {
		if got := keys("G"); !slices.Equal(got, first) {
			t.Fatalf("call %d: G in order %q, first call %q", i, got, first)
		}
	}
}
