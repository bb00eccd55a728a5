package mapping

import (
	"context"
	"strings"
	"testing"

	"orchestra/internal/datalog"
	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

func str(s string) schema.Value { return schema.String(s) }

// joinMapping is Figure 2's MA→C: OPS(org,prot,seq) :- O(org,oid),
// P(prot,pid), S(oid,pid,seq).
func joinMapping() *Mapping {
	return &Mapping{
		ID: "M_AC", Source: "alaska", Target: "crete",
		Body: []datalog.Literal{
			datalog.Pos(datalog.NewAtom("alaska.O", datalog.V("org"), datalog.V("oid"))),
			datalog.Pos(datalog.NewAtom("alaska.P", datalog.V("prot"), datalog.V("pid"))),
			datalog.Pos(datalog.NewAtom("alaska.S", datalog.V("oid"), datalog.V("pid"), datalog.V("seq"))),
		},
		Head: []datalog.Atom{
			datalog.NewAtom("crete.OPS", datalog.V("org"), datalog.V("prot"), datalog.V("seq")),
		},
	}
}

// splitMapping is Figure 2's MC→A: O(org,oid), P(prot,pid), S(oid,pid,seq)
// :- OPS(org,prot,seq) with oid, pid existential.
func splitMapping() *Mapping {
	return &Mapping{
		ID: "M_CA", Source: "crete", Target: "alaska",
		Body: []datalog.Literal{
			datalog.Pos(datalog.NewAtom("crete.OPS", datalog.V("org"), datalog.V("prot"), datalog.V("seq"))),
		},
		Head: []datalog.Atom{
			datalog.NewAtom("alaska.O", datalog.V("org"), datalog.V("oid")),
			datalog.NewAtom("alaska.P", datalog.V("prot"), datalog.V("pid")),
			datalog.NewAtom("alaska.S", datalog.V("oid"), datalog.V("pid"), datalog.V("seq")),
		},
	}
}

func TestQualify(t *testing.T) {
	p, r, err := SplitQualified(Qualify("alaska", "O"))
	if err != nil || p != "alaska" || r != "O" {
		t.Errorf("split = %s %s %v", p, r, err)
	}
	if _, _, err := SplitQualified("nodot"); err == nil {
		t.Error("unqualified accepted")
	}
}

func TestExistentialVars(t *testing.T) {
	if vars := joinMapping().ExistentialVars(); len(vars) != 0 {
		t.Errorf("join existentials = %v", vars)
	}
	vars := splitMapping().ExistentialVars()
	if len(vars) != 2 || vars[0] != "oid" || vars[1] != "pid" {
		t.Errorf("split existentials = %v", vars)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		m    *Mapping
	}{
		{"no id", &Mapping{Body: joinMapping().Body, Head: joinMapping().Head}},
		{"empty body", &Mapping{ID: "m", Head: joinMapping().Head}},
		{"empty head", &Mapping{ID: "m", Body: joinMapping().Body}},
		{"negated body", &Mapping{ID: "m",
			Body: []datalog.Literal{datalog.Neg(datalog.NewAtom("a.R", datalog.V("x")))},
			Head: []datalog.Atom{datalog.NewAtom("b.R", datalog.V("x"))}}},
		{"unqualified body", &Mapping{ID: "m",
			Body: []datalog.Literal{datalog.Pos(datalog.NewAtom("R", datalog.V("x")))},
			Head: []datalog.Atom{datalog.NewAtom("b.R", datalog.V("x"))}}},
		{"unqualified head", &Mapping{ID: "m",
			Body: []datalog.Literal{datalog.Pos(datalog.NewAtom("a.R", datalog.V("x")))},
			Head: []datalog.Atom{datalog.NewAtom("R", datalog.V("x"))}}},
		{"builtin only body", &Mapping{ID: "m",
			Body: []datalog.Literal{datalog.Cmp(datalog.V("x"), datalog.OpLt, datalog.V("y"))},
			Head: []datalog.Atom{datalog.NewAtom("b.R", datalog.V("x"))}}},
		{"unbound builtin var", &Mapping{ID: "m",
			Body: []datalog.Literal{
				datalog.Pos(datalog.NewAtom("a.R", datalog.V("x"))),
				datalog.Cmp(datalog.V("w"), datalog.OpLt, datalog.V("x"))},
			Head: []datalog.Atom{datalog.NewAtom("b.R", datalog.V("x"))}}},
	}
	for _, c := range cases {
		if err := c.m.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if err := joinMapping().Validate(); err != nil {
		t.Errorf("join mapping rejected: %v", err)
	}
	if err := splitMapping().Validate(); err != nil {
		t.Errorf("split mapping rejected: %v", err)
	}
}

func TestJoinMappingEvaluation(t *testing.T) {
	prog, err := Compile([]*Mapping{joinMapping()})
	if err != nil {
		t.Fatal(err)
	}
	edb := datalog.NewDB()
	edb.Add("alaska.O", schema.NewTuple(str("mouse"), schema.Int(1)), provenance.NewVar("o1"))
	edb.Add("alaska.P", schema.NewTuple(str("p53"), schema.Int(10)), provenance.NewVar("p1"))
	edb.Add("alaska.S", schema.NewTuple(schema.Int(1), schema.Int(10), str("ACGT")), provenance.NewVar("s1"))
	// A dangling S tuple with no matching P: must not produce OPS.
	edb.Add("alaska.S", schema.NewTuple(schema.Int(1), schema.Int(99), str("TTTT")), provenance.NewVar("s2"))
	res, err := datalog.EvalCtx(context.Background(), prog, edb, datalog.Options{Provenance: true})
	if err != nil {
		t.Fatal(err)
	}
	ops := res.Rel("crete.OPS")
	if ops.Len() != 1 {
		t.Fatalf("OPS = %v", ops.Facts())
	}
	f, _ := ops.Get(schema.NewTuple(str("mouse"), str("p53"), str("ACGT")))
	// Provenance: o1·p1·s1·M_AC.
	want := provenance.NewVar("o1").Mul(provenance.NewVar("p1")).
		Mul(provenance.NewVar("s1")).Mul(provenance.NewVar("M_AC"))
	if !f.Prov.Equal(want) {
		t.Errorf("prov = %v, want %v", f.Prov, want)
	}
}

func TestSplitMappingSharedSkolems(t *testing.T) {
	prog, err := Compile([]*Mapping{splitMapping()})
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) != 3 {
		t.Fatalf("split compiles to %d rules", len(prog.Rules))
	}
	edb := datalog.NewDB()
	edb.AddTuple("crete.OPS", schema.NewTuple(str("mouse"), str("p53"), str("ACGT")))
	edb.AddTuple("crete.OPS", schema.NewTuple(str("mouse"), str("brca1"), str("GGGG")))
	res, err := datalog.EvalCtx(context.Background(), prog, edb, datalog.Options{Provenance: true})
	if err != nil {
		t.Fatal(err)
	}
	oRel, pRel, sRel := res.Rel("alaska.O"), res.Rel("alaska.P"), res.Rel("alaska.S")
	if oRel.Len() != 2 || pRel.Len() != 2 || sRel.Len() != 2 {
		t.Fatalf("O/P/S sizes = %d/%d/%d", oRel.Len(), pRel.Len(), sRel.Len())
	}
	// The oid invented in O(mouse, ⊥oid) must be the same labeled null used
	// in S(⊥oid, ⊥pid, ACGT).
	var mouseOid schema.Value
	for _, f := range oRel.Facts() {
		if f.Tuple[0].Equal(str("mouse")) {
			if !f.Tuple[1].IsLabeledNull() {
				t.Fatalf("oid is not a labeled null: %v", f.Tuple)
			}
			mouseOid = f.Tuple[1]
		}
	}
	found := false
	for _, f := range sRel.Facts() {
		if f.Tuple[2].Equal(str("ACGT")) {
			if !f.Tuple[0].Equal(mouseOid) {
				t.Errorf("S oid %v != O oid %v", f.Tuple[0], mouseOid)
			}
			found = true
		}
	}
	if !found {
		t.Error("no S tuple for ACGT")
	}
	// Same (org,prot,seq) frontier ⇒ same skolem; two OPS rows for "mouse"
	// with different prot produce DIFFERENT oids because the frontier
	// includes prot and seq. (This is standard per-tgd skolemization.)
	oids := map[string]bool{}
	for _, f := range oRel.Facts() {
		oids[f.Tuple[1].Key()] = true
	}
	if len(oids) != 2 {
		t.Errorf("expected 2 distinct invented oids, got %d", len(oids))
	}
}

func TestCompileDuplicateID(t *testing.T) {
	if _, err := Compile([]*Mapping{joinMapping(), joinMapping()}); err == nil {
		t.Error("duplicate mapping IDs accepted")
	}
}

func TestIdentityMappings(t *testing.T) {
	s := schema.NewSchema("Σ1")
	s.MustAddRelation(schema.MustRelation("O",
		[]schema.Attribute{{Name: "org", Type: schema.KindString}, {Name: "oid", Type: schema.KindInt}}, "oid"))
	s.MustAddRelation(schema.MustRelation("P",
		[]schema.Attribute{{Name: "prot", Type: schema.KindString}, {Name: "pid", Type: schema.KindInt}}, "pid"))
	ms := Identity("M_AB", "alaska", "beijing", s)
	if len(ms) != 2 {
		t.Fatalf("identity produced %d mappings", len(ms))
	}
	prog, err := Compile(ms)
	if err != nil {
		t.Fatal(err)
	}
	edb := datalog.NewDB()
	edb.AddTuple("alaska.O", schema.NewTuple(str("mouse"), schema.Int(1)))
	res, err := datalog.EvalCtx(context.Background(), prog, edb, datalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rel("beijing.O").Contains(schema.NewTuple(str("mouse"), schema.Int(1))) {
		t.Error("identity mapping did not copy tuple")
	}
	for _, m := range ms {
		if !strings.HasPrefix(m.ID, "M_AB_") {
			t.Errorf("mapping id = %s", m.ID)
		}
	}
}

func TestMappingWithBuiltin(t *testing.T) {
	// Copy only sequences for oid < 100.
	m := &Mapping{
		ID: "M_f", Source: "a", Target: "b",
		Body: []datalog.Literal{
			datalog.Pos(datalog.NewAtom("a.S", datalog.V("oid"), datalog.V("seq"))),
			datalog.Cmp(datalog.V("oid"), datalog.OpLt, datalog.C(schema.Int(100))),
		},
		Head: []datalog.Atom{datalog.NewAtom("b.S", datalog.V("oid"), datalog.V("seq"))},
	}
	prog, err := Compile([]*Mapping{m})
	if err != nil {
		t.Fatal(err)
	}
	edb := datalog.NewDB()
	edb.AddTuple("a.S", schema.NewTuple(schema.Int(5), str("AA")))
	edb.AddTuple("a.S", schema.NewTuple(schema.Int(500), str("BB")))
	res, err := datalog.EvalCtx(context.Background(), prog, edb, datalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel("b.S").Len() != 1 {
		t.Errorf("filtered copy = %v", res.Rel("b.S").Facts())
	}
}

func TestRoundTripJoinSplit(t *testing.T) {
	// Compose MA→C and MC→A: alaska data flows to crete and back; the
	// round trip reproduces the original tuples (plus skolem variants).
	prog, err := Compile([]*Mapping{joinMapping(), splitMapping()})
	if err != nil {
		t.Fatal(err)
	}
	edb := datalog.NewDB()
	edb.AddTuple("alaska.O", schema.NewTuple(str("mouse"), schema.Int(1)))
	edb.AddTuple("alaska.P", schema.NewTuple(str("p53"), schema.Int(10)))
	edb.AddTuple("alaska.S", schema.NewTuple(schema.Int(1), schema.Int(10), str("ACGT")))
	res, err := datalog.EvalCtx(context.Background(), prog, edb, datalog.Options{Provenance: true})
	if err != nil {
		t.Fatal(err)
	}
	// crete gets the joined tuple.
	if !res.Rel("crete.OPS").Contains(schema.NewTuple(str("mouse"), str("p53"), str("ACGT"))) {
		t.Error("join direction failed")
	}
	// alaska keeps its original tuples and gains skolemized variants.
	if !res.Rel("alaska.O").Contains(schema.NewTuple(str("mouse"), schema.Int(1))) {
		t.Error("original lost")
	}
	if res.Rel("alaska.O").Len() != 2 {
		t.Errorf("alaska.O = %v", res.Rel("alaska.O").Facts())
	}
}
