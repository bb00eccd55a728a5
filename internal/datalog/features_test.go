package datalog

import (
	"context"
	"fmt"
	"testing"

	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

// splitJoinProgram models the ORCHESTRA cycle: OPS splits into O/S with an
// invented oid, and O/S join back into OPS.
func splitJoinProgram() *Program {
	return &Program{Rules: []Rule{
		{ID: "split.O", ProvToken: "Msplit",
			Head: NewHead("O", HV("org"), HSkolem("sk_oid", V("org"), V("seq"))),
			Body: []Literal{Pos(NewAtom("OPS", V("org"), V("seq")))}},
		{ID: "split.S", ProvToken: "Msplit",
			Head: NewHead("S", HSkolem("sk_oid", V("org"), V("seq")), HV("seq")),
			Body: []Literal{Pos(NewAtom("OPS", V("org"), V("seq")))}},
		{ID: "join", ProvToken: "Mjoin",
			Head: NewHead("OPS", HV("org"), HV("seq")),
			Body: []Literal{
				Pos(NewAtom("O", V("org"), V("oid"))),
				Pos(NewAtom("S", V("oid"), V("seq")))}},
	}}
}

func TestChaseSubsumptionSuppressesEcho(t *testing.T) {
	edb := NewDB()
	edb.Add("O", schema.NewTuple(schema.String("mouse"), schema.Int(1)), provenance.NewVar("o"))
	edb.Add("S", schema.NewTuple(schema.Int(1), schema.String("ACGT")), provenance.NewVar("s"))

	// Without the chase check, the O tuple echoes back as a Skolem variant.
	plain, err := Eval(splitJoinProgram(), edb, Options{Provenance: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Rel("O").Len() != 2 {
		t.Fatalf("expected skolem echo without chase check, O = %v", plain.Rel("O").Facts())
	}

	// With it, the concrete tuple subsumes the null-padded variant.
	chased, err := Eval(splitJoinProgram(), edb, Options{Provenance: true, ChaseSubsumption: true})
	if err != nil {
		t.Fatal(err)
	}
	if chased.Rel("O").Len() != 1 {
		t.Errorf("echo not suppressed: O = %v", chased.Rel("O").Facts())
	}
	// The joined OPS tuple itself must still be derived.
	if !chased.Rel("OPS").Contains(schema.NewTuple(schema.String("mouse"), schema.String("ACGT"))) {
		t.Error("OPS lost")
	}
}

func TestChaseSubsumptionKeepsNovelNulls(t *testing.T) {
	// A split with NO concrete counterpart must still materialize.
	edb := NewDB()
	edb.Add("OPS", schema.NewTuple(schema.String("fly"), schema.String("GGGG")), provenance.NewVar("x"))
	res, err := Eval(splitJoinProgram(), edb, Options{Provenance: true, ChaseSubsumption: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel("O").Len() != 1 || res.Rel("S").Len() != 1 {
		t.Fatalf("split output = O:%v S:%v", res.Rel("O").Facts(), res.Rel("S").Facts())
	}
	for _, f := range res.Rel("O").Facts() {
		if !f.Tuple[1].IsLabeledNull() {
			t.Errorf("expected labeled null, got %v", f.Tuple)
		}
	}
}

// TestChaseSubsumptionWithinRound: both rules fire in the naive round, the
// concrete one first, so each Skolem-padded T(k, f(k)) meets its concrete
// subsumer T(k, v) already merged earlier in the same round; only B(99),
// which has none, keeps its padded fact.
func TestChaseSubsumptionWithinRound(t *testing.T) {
	prog := &Program{Rules: []Rule{
		{ID: "concrete", Head: NewHead("T", HV("k"), HV("v")), Body: []Literal{Pos(NewAtom("A", V("k"), V("v")))}},
		{ID: "padded", Head: NewHead("T", HV("k"), HSkolem("f", V("k"))), Body: []Literal{Pos(NewAtom("B", V("k")))}},
	}}
	edb := NewDB()
	for i := int64(0); i < 4; i++ {
		edb.AddTuple("A", schema.NewTuple(schema.Int(i), schema.Int(10+i)))
		edb.AddTuple("B", schema.NewTuple(schema.Int(i)))
	}
	edb.AddTuple("B", schema.NewTuple(schema.Int(99))) // no concrete subsumer
	opts := Options{Provenance: true, ChaseSubsumption: true}
	got, err := Eval(prog, edb, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := got.Rel("T").Len(); n != 5 {
		t.Fatalf("T has %d facts, want 5 (4 concrete + 1 padded): %v", n, got.Rel("T").Facts())
	}
	want, err := oracleEval(prog, edb, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireDBsEqual(t, "chase-within-round", want, got)
}

func TestMaxMonomialsBoundsAnnotations(t *testing.T) {
	// A tuple derivable via many alternative paths: U(x) :- E_i(x) for
	// many i.
	prog := &Program{}
	edb := NewDB()
	one := schema.NewTuple(schema.Int(1))
	for i := 0; i < 20; i++ {
		pred := fmt.Sprintf("E%d", i)
		prog.Rules = append(prog.Rules, Rule{
			ID:   pred,
			Head: NewHead("U", HV("x")),
			Body: []Literal{Pos(NewAtom(pred, V("x")))},
		})
		edb.Add(pred, one, provenance.NewVar(provenance.Var(fmt.Sprint("e", i))))
	}
	res, err := Eval(prog, edb, Options{Provenance: true, MaxMonomials: 4})
	if err != nil {
		t.Fatal(err)
	}
	f, ok := res.Rel("U").Get(one)
	if !ok {
		t.Fatal("U(1) missing")
	}
	if f.Prov.NumMonomials() > 4 {
		t.Errorf("annotation has %d monomials, bound was 4", f.Prov.NumMonomials())
	}
	// Unbounded keeps all 20.
	res2, err := Eval(prog, edb, Options{Provenance: true})
	if err != nil {
		t.Fatal(err)
	}
	f2, _ := res2.Rel("U").Get(one)
	if f2.Prov.NumMonomials() != 20 {
		t.Errorf("unbounded = %d monomials", f2.Prov.NumMonomials())
	}
}

func TestJoinOrderIndependence(t *testing.T) {
	// The same query with body atoms in every order must produce identical
	// results (the greedy join orderer must not change semantics).
	bodies := [][]Literal{
		{Pos(NewAtom("A", V("x"))), Pos(NewAtom("B", V("x"), V("y"))), Pos(NewAtom("C", V("y")))},
		{Pos(NewAtom("C", V("y"))), Pos(NewAtom("B", V("x"), V("y"))), Pos(NewAtom("A", V("x")))},
		{Pos(NewAtom("B", V("x"), V("y"))), Pos(NewAtom("C", V("y"))), Pos(NewAtom("A", V("x")))},
	}
	edb := NewDB()
	for i := int64(0); i < 10; i++ {
		edb.AddTuple("A", schema.NewTuple(schema.Int(i)))
		edb.AddTuple("C", schema.NewTuple(schema.Int(i*2)))
		edb.AddTuple("B", schema.NewTuple(schema.Int(i), schema.Int(i*2)))
	}
	var first []Fact
	for i, body := range bodies {
		prog := &Program{Rules: []Rule{{
			ID: fmt.Sprint("q", i), Head: NewHead("Out", HV("x"), HV("y")), Body: body,
		}}}
		res, err := Eval(prog, edb, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := res.Rel("Out").Facts()
		if i == 0 {
			first = got
			if len(first) != 10 {
				t.Fatalf("Out = %v", first)
			}
			continue
		}
		if len(got) != len(first) {
			t.Fatalf("order %d: %d facts vs %d", i, len(got), len(first))
		}
		for j := range got {
			if !got[j].Tuple.Equal(first[j].Tuple) {
				t.Errorf("order %d: fact %d differs", i, j)
			}
		}
	}
}

func TestRepeatedVariableAcrossAtoms(t *testing.T) {
	// R(x,x) via two atoms sharing x both ways around.
	prog := &Program{Rules: []Rule{{
		ID:   "rr",
		Head: NewHead("Out", HV("x")),
		Body: []Literal{
			Pos(NewAtom("A", V("x"), V("x"))),
			Pos(NewAtom("B", V("x"))),
		},
	}}}
	edb := NewDB()
	edb.AddTuple("A", schema.NewTuple(schema.Int(1), schema.Int(1)))
	edb.AddTuple("A", schema.NewTuple(schema.Int(1), schema.Int(2)))
	edb.AddTuple("A", schema.NewTuple(schema.Int(3), schema.Int(3)))
	edb.AddTuple("B", schema.NewTuple(schema.Int(1)))
	edb.AddTuple("B", schema.NewTuple(schema.Int(3)))
	res, err := Eval(prog, edb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel("Out").Len() != 2 {
		t.Errorf("Out = %v", res.Rel("Out").Facts())
	}
}

func TestIncrementalWithMaxMonomials(t *testing.T) {
	// Incremental maintenance under a tight monomial bound still converges
	// and keeps tuples correct on a cyclic identity pair.
	prog := &Program{Rules: []Rule{
		{ID: "ab", ProvToken: "Mab", Head: NewHead("B", HV("x")), Body: []Literal{Pos(NewAtom("A", V("x")))}},
		{ID: "ba", ProvToken: "Mba", Head: NewHead("A", HV("x")), Body: []Literal{Pos(NewAtom("B", V("x")))}},
	}}
	inc, err := NewIncremental(prog, NewDB(), Options{MaxMonomials: 1})
	if err != nil {
		t.Fatal(err)
	}
	one := schema.NewTuple(schema.Int(1))
	if _, err := inc.Insert(context.Background(), []Fact2{{Pred: "A", Tuple: one, Prov: provenance.NewVar("a1")}}); err != nil {
		t.Fatal(err)
	}
	if !inc.DB().Rel("B").Contains(one) {
		t.Fatal("B(1) missing")
	}
	f, _ := inc.DB().Rel("B").Get(one)
	if f.Prov.NumMonomials() > 1 {
		t.Errorf("bound violated: %v", f.Prov)
	}
	// Deleting the base token removes everything.
	inc.DeleteBase([]provenance.Var{"a1"})
	if inc.DB().Rel("B").Contains(one) || inc.DB().Rel("A").Contains(one) {
		t.Error("deletion incomplete under monomial bound")
	}
}
