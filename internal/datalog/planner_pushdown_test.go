package datalog

import (
	"context"
	"fmt"
	"testing"

	"orchestra/internal/schema"
)

// --- equality pushdown into probe keys ---

func findStep(p *plan, bodyIdx int) *planStep {
	for i := range p.steps {
		if p.steps[i].bodyIdx == bodyIdx {
			return &p.steps[i]
		}
	}
	return nil
}

func TestPushdownConstEqualityIntoProbe(t *testing.T) {
	// y = 3 must become a probe column of R's scan: the index bucket then
	// only surfaces matching facts. The filter still runs afterwards.
	r := Rule{ID: "p", Head: NewHead("Out", HV("x")), Body: []Literal{
		Pos(NewAtom("R", V("x"), V("y"))),
		Cmp(V("y"), OpEq, C(schema.Int(3))),
	}}
	p := buildPlan(r, -1, NewDB(), false)
	st := findStep(p, 0)
	if st == nil || st.kind != stepScan {
		t.Fatalf("no scan step for body 0 in %s", p)
	}
	if st.pushed != 1 || len(st.boundCols) != 1 || st.boundCols[0] != 1 {
		t.Fatalf("pushed=%d boundCols=%v, want the y column probed", st.pushed, st.boundCols)
	}
	if st.probes[0].mode != termConst || !st.probes[0].val.Equal(schema.Int(3)) {
		t.Fatalf("probe = %+v, want const 3", st.probes[0])
	}
	// The slot must still bind from the candidate (both columns actioned).
	if len(st.actions) != 2 {
		t.Fatalf("actions = %+v, want binds for both x and y", st.actions)
	}
}

func TestPushdownVarEqualityUsesEarlierSlot(t *testing.T) {
	// x binds in A; the filter x = y then lets B's scan probe its y column
	// with x's slot.
	r := Rule{ID: "pv", Head: NewHead("Out", HV("x"), HV("z")), Body: []Literal{
		Pos(NewAtom("A", V("x"))),
		Pos(NewAtom("B", V("y"), V("z"))),
		Cmp(V("x"), OpEq, V("y")),
	}}
	db := NewDB()
	db.AddTuple("A", schema.NewTuple(schema.Int(1)))
	for i := int64(0); i < 10; i++ {
		db.AddTuple("B", schema.NewTuple(schema.Int(i), schema.Int(i)))
	}
	p := buildPlan(r, -1, db, false)
	st := findStep(p, 1)
	if st == nil {
		t.Fatalf("no step for B in %s", p)
	}
	if st.pushed != 1 || len(st.boundCols) != 1 || st.boundCols[0] != 0 {
		t.Fatalf("pushed=%d boundCols=%v, want B's y column probed via x's slot", st.pushed, st.boundCols)
	}
	if st.probes[0].mode != termSlot {
		t.Fatalf("probe mode = %v, want termSlot", st.probes[0].mode)
	}
}

func TestPushdownRejectsSameAtomNeighbor(t *testing.T) {
	// x = y where BOTH variables are introduced by the same atom: the probe
	// key is encoded before the atom's bind actions run, so neither column
	// may be probed through the other's slot.
	r := Rule{ID: "sa", Head: NewHead("Out", HV("x")), Body: []Literal{
		Pos(NewAtom("R", V("x"), V("y"))),
		Cmp(V("x"), OpEq, V("y")),
	}}
	p := buildPlan(r, -1, NewDB(), false)
	st := findStep(p, 0)
	if st.pushed != 0 || len(st.boundCols) != 0 {
		t.Fatalf("pushed=%d boundCols=%v: same-atom equality must not push down", st.pushed, st.boundCols)
	}
}

func TestPushdownEquivalenceOnData(t *testing.T) {
	// End-to-end: the pushed plan computes exactly the reference results.
	prog := &Program{Rules: []Rule{
		{ID: "c", Head: NewHead("OutC", HV("x")), Body: []Literal{
			Pos(NewAtom("R", V("x"), V("y"))), Cmp(V("y"), OpEq, C(schema.Int(2)))}},
		{ID: "v", Head: NewHead("OutV", HV("x"), HV("z")), Body: []Literal{
			Pos(NewAtom("S", V("x"))),
			Pos(NewAtom("R", V("y"), V("z"))),
			Cmp(V("x"), OpEq, V("y"))}},
		{ID: "same", Head: NewHead("OutS", HV("x")), Body: []Literal{
			Pos(NewAtom("R", V("x"), V("y"))), Cmp(V("x"), OpEq, V("y"))}},
	}}
	edb := NewDB()
	for i := int64(0); i < 12; i++ {
		edb.AddTuple("R", schema.NewTuple(schema.Int(i%6), schema.Int(i%4)))
		if i < 6 {
			edb.AddTuple("S", schema.NewTuple(schema.Int(i)))
		}
	}
	want, err := oracleEval(prog, edb, Options{Provenance: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := EvalCtx(context.Background(), prog, edb, Options{Provenance: true})
	if err != nil {
		t.Fatal(err)
	}
	requireDBsEqual(t, "pushdown", want, got)
}

// --- constant-only existence gates ---

func TestPlanConstOnlyAtomSchedulesBeforeDelta(t *testing.T) {
	// Gate(1) is a pure existence probe: under greedy ordering it runs
	// before the delta literal, so a failing gate costs one probe per round
	// instead of one per delta fact.
	r := Rule{ID: "g", Head: NewHead("Out", HV("x"), HV("y")), Body: []Literal{
		Pos(NewAtom("D", V("x"), V("y"))),
		Pos(NewAtom("Gate", C(schema.Int(1)))),
	}}
	p := buildPlan(r, 0, NewDB(), false)
	if got := fmt.Sprint(p.order()); got != "[1 0]" {
		t.Fatalf("plan order = %v (%s), want the gate before the delta", got, p)
	}
	// noReorder keeps the delta first, written order after.
	p = buildPlan(r, 0, NewDB(), true)
	if got := fmt.Sprint(p.order()); got != "[0 1]" {
		t.Fatalf("noReorder plan order = %v, want [0 1]", got)
	}
}

func TestConstGateEquivalenceOnData(t *testing.T) {
	prog := &Program{Rules: []Rule{{
		ID:   "gated",
		Head: NewHead("Out", HV("x")),
		Body: []Literal{
			Pos(NewAtom("In", V("x"))),
			Pos(NewAtom("Flag", C(schema.String("on")))),
		},
	}}}
	for _, flagged := range []bool{false, true} {
		edb := NewDB()
		for i := int64(0); i < 5; i++ {
			edb.AddTuple("In", schema.NewTuple(schema.Int(i)))
		}
		if flagged {
			edb.AddTuple("Flag", schema.NewTuple(schema.String("on")))
		}
		want, err := oracleEval(prog, edb, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := EvalCtx(context.Background(), prog, edb, Options{})
		if err != nil {
			t.Fatal(err)
		}
		requireDBsEqual(t, fmt.Sprintf("gate/flagged=%v", flagged), want, got)
		wantN := 0
		if flagged {
			wantN = 5
		}
		if got.Rel("Out").Len() != wantN {
			t.Fatalf("flagged=%v: Out has %d facts, want %d", flagged, got.Rel("Out").Len(), wantN)
		}
	}
}
