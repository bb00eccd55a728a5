package datalog

import (
	"context"
	"fmt"
	"testing"

	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

// A prepared program keeps its plans while the relation sizes they broke
// ties by order the same way, and rebuilds exactly the plans whose ties
// flipped: every kept plan renders as the plan buildPlan would build now.
func TestPreparedPlansFollowSizeTies(t *testing.T) {
	prog := &Program{Rules: []Rule{
		{ID: "h", Head: NewHead("h", HV("x"), HV("y")), Body: []Literal{
			Pos(NewAtom("a", V("x"), V("z"))), Pos(NewAtom("b", V("z"), V("y")))}},
		{ID: "k", Head: NewHead("k", HV("x"), HV("w")), Body: []Literal{
			Pos(NewAtom("h", V("x"), V("y"))), Pos(NewAtom("c", V("y"), V("w")))}},
	}}
	pp, err := Prepare(prog)
	if err != nil {
		t.Fatal(err)
	}
	edb := NewDB()
	fill := func(pred string, n int) {
		for i := edb.Rel(pred).Len(); i < n; i++ {
			edb.Add(pred, schema.NewTuple(schema.Int(int64(i)), schema.Int(int64(i+1))),
				provenance.NewVar(provenance.Var(fmt.Sprintf("%s%d", pred, i))))
		}
	}
	fill("a", 3)
	fill("b", 5)
	fill("c", 2)
	check := func(step string, wantReplans int64) []string {
		t.Helper()
		out, err := pp.Eval(context.Background(), edb, Options{Provenance: true})
		if err != nil {
			t.Fatal(err)
		}
		want, err := EvalCtx(context.Background(), prog, edb, Options{Provenance: true})
		if err != nil {
			t.Fatal(err)
		}
		requireDBsEqual(t, step, want, out)
		if got := pp.Replans(); got != wantReplans {
			t.Fatalf("%s: %d replans, want %d", step, got, wantReplans)
		}
		// The stratum starts with the EDB alone: h is still empty.
		start := edb.Snapshot()
		start.Rel("h")
		var plans []string
		for i, rp := range pp.strata[0].plans {
			r := pp.strata[0].rules[i]
			if got, fresh := rp.full.String(), buildPlan(r, -1, start, false).String(); got != fresh {
				t.Fatalf("%s: rule %s kept plan [%s], a fresh plan is [%s]", step, r.ID, got, fresh)
			}
			for j, d := range rp.delta {
				if d == nil {
					continue
				}
				if got, fresh := d.String(), buildPlan(r, j, start, false).String(); got != fresh {
					t.Fatalf("%s: rule %s delta %d kept plan [%s], a fresh plan is [%s]", step, r.ID, j, got, fresh)
				}
			}
			plans = append(plans, rp.full.String())
		}
		return plans
	}
	first := check("first evaluation", 0)
	check("sizes unchanged", 0)
	fill("c", 4) // c grows, but h (empty at the start) still wins k's tie
	check("tie holds", 0)
	fill("a", 8) // b is now the smaller of h's tied atoms
	flipped := check("tie flipped", 1)
	if first[0] == flipped[0] {
		t.Fatalf("h's plan did not change when its tie flipped: [%s]", first[0])
	}
	check("flipped tie holds", 1)
}

// Update exchange takes its plans from the same store: a live Incremental
// keeps them while every size tie holds, re-plans the rule whose tie flipped,
// and runs the plans an Incremental restored from its snapshot runs.
func TestIncrementalPlansFollowSizeTies(t *testing.T) {
	// With the delta at d, b(z) and c(z) tie on boundness: the smaller
	// relation goes first.
	prog := &Program{Rules: []Rule{
		{ID: "h", Head: NewHead("h", HV("x")), Body: []Literal{
			Pos(NewAtom("d", V("x"), V("z"))), Pos(NewAtom("b", V("z"))), Pos(NewAtom("c", V("z")))}},
	}}
	n := 0
	fact := func(pred string, vals ...int64) Fact2 {
		n++
		tu := make(schema.Tuple, len(vals))
		for i, v := range vals {
			tu[i] = schema.Int(v)
		}
		return Fact2{Pred: pred, Tuple: tu, Prov: provenance.NewVar(provenance.Var(fmt.Sprintf("t%d", n)))}
	}
	live, err := NewIncremental(prog, NewDB(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// step restores a twin from the live engine's snapshot, inserts facts
	// into both, and checks that they ran the same plans.
	step := func(name string, wantReplans int64, facts ...Fact2) string {
		t.Helper()
		blob, err := EncodeDB(live.DB())
		if err != nil {
			t.Fatal(err)
		}
		db, err := DecodeDB(blob)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := RestoreIncremental(prog, db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, inc := range []*Incremental{live, twin} {
			if _, err := inc.Insert(context.Background(), facts); err != nil {
				t.Fatal(err)
			}
		}
		if got := live.pp.Replans(); got != wantReplans {
			t.Fatalf("%s: %d replans, want %d", name, got, wantReplans)
		}
		plans := live.Plans()
		if got := twin.Plans(); got != plans {
			t.Fatalf("%s: live plans\n%s\nrestored plans\n%s", name, plans, got)
		}
		return plans
	}
	// Planned on the empty database, where b wins the tie by body position.
	first := step("b smaller", 0, fact("b", 1), fact("c", 1), fact("c", 2))
	step("tie holds", 0, fact("d", 7, 1), fact("c", 3))
	flipped := step("tie flipped", 1, fact("b", 2), fact("b", 3), fact("b", 4))
	if first == flipped {
		t.Fatalf("plans did not change when the tie flipped:\n%s", first)
	}
	step("flipped tie holds", 1, fact("d", 8, 2))
}
