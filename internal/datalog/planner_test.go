package datalog

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

// order returns the body indexes in scheduled order.
func (p *plan) order() []int {
	out := make([]int, len(p.steps))
	for i, s := range p.steps {
		out[i] = s.bodyIdx
	}
	return out
}

// --- plan ordering ---

func TestPlanDimensionTablesBeforeWideScan(t *testing.T) {
	// Written order is pessimal: the wide fact table first, the unrelated
	// dimension table last. Greedy must start from the smallest relation
	// and follow bound variables.
	r := Rule{ID: "j", Head: NewHead("Out", HV("x"), HV("z")), Body: []Literal{
		Pos(NewAtom("Wide", V("x"), V("y"))),
		Pos(NewAtom("Mid", V("y"), V("z"))),
		Pos(NewAtom("Tiny", V("x"))),
	}}
	db := NewDB()
	for i := int64(0); i < 100; i++ {
		db.AddTuple("Wide", schema.NewTuple(schema.Int(i%4), schema.Int(i)))
	}
	for i := int64(0); i < 20; i++ {
		db.AddTuple("Mid", schema.NewTuple(schema.Int(i), schema.Int(i)))
	}
	for i := int64(0); i < 4; i++ {
		db.AddTuple("Tiny", schema.NewTuple(schema.Int(i)))
	}
	p := buildPlan(r, -1, db, false)
	got := fmt.Sprint(p.order())
	// Tiny (4 facts) first; it binds x, making Wide a 1-bound probe that
	// beats unbound Mid; then Mid joins on the bound y.
	if want := "[2 0 1]"; got != want {
		t.Fatalf("plan order = %v (%s), want %v", got, p, want)
	}
}

func TestPlanConstantSelectiveAtomFirst(t *testing.T) {
	// An atom with a constant is more bound than a bigger unbound one even
	// though both relations have the same size.
	r := Rule{ID: "c", Head: NewHead("Out", HV("y")), Body: []Literal{
		Pos(NewAtom("R", V("x"), V("y"))),
		Pos(NewAtom("S", C(schema.String("k")), V("x"))),
	}}
	db := NewDB()
	for i := int64(0); i < 10; i++ {
		db.AddTuple("R", schema.NewTuple(schema.Int(i), schema.Int(i)))
		db.AddTuple("S", schema.NewTuple(schema.String("k"), schema.Int(i)))
	}
	p := buildPlan(r, -1, db, false)
	if got := fmt.Sprint(p.order()); got != "[1 0]" {
		t.Fatalf("plan order = %v (%s), want [1 0]", got, p)
	}
}

func TestPlanFullyBoundAtomBecomesExistenceProbe(t *testing.T) {
	// Once x and y are bound, Big(x,y) is fully bound: it must be probed
	// before the huge half-bound scan even though Big is the largest
	// relation.
	r := Rule{ID: "f", Head: NewHead("Out", HV("x"), HV("y"), HV("z")), Body: []Literal{
		Pos(NewAtom("Big", V("x"), V("y"))),
		Pos(NewAtom("Fan", V("x"), V("z"))),
		Pos(NewAtom("Pair", V("x"), V("y"))),
	}}
	db := NewDB()
	for i := int64(0); i < 500; i++ {
		db.AddTuple("Big", schema.NewTuple(schema.Int(i), schema.Int(i)))
		db.AddTuple("Fan", schema.NewTuple(schema.Int(i%10), schema.Int(i)))
	}
	for i := int64(0); i < 30; i++ {
		db.AddTuple("Pair", schema.NewTuple(schema.Int(i), schema.Int(i)))
	}
	p := buildPlan(r, -1, db, false)
	// Pair (30) first, binding x,y; Big is then fully bound and probes
	// before the half-bound Fan scan.
	if got := fmt.Sprint(p.order()); got != "[2 0 1]" {
		t.Fatalf("plan order = %v (%s), want [2 0 1]", got, p)
	}
}

func TestPlanDeltaLiteralAlwaysFirst(t *testing.T) {
	r := Rule{ID: "d", Head: NewHead("Out", HV("x"), HV("z")), Body: []Literal{
		Pos(NewAtom("A", V("x"), V("y"))),
		Pos(NewAtom("B", V("y"), V("z"))),
	}}
	db := NewDB()
	for i := 0; i < 2; i++ {
		p := buildPlan(r, i, db, false)
		if p.order()[0] != i {
			t.Errorf("deltaIdx %d: plan order = %v, delta not first", i, p.order())
		}
	}
}

func TestPlanWrittenOrderKeepsBodyOrder(t *testing.T) {
	r := Rule{ID: "n", Head: NewHead("Out", HV("x"), HV("z")), Body: []Literal{
		Pos(NewAtom("Wide", V("x"), V("y"))),
		Pos(NewAtom("Mid", V("y"), V("z"))),
		Pos(NewAtom("Tiny", V("x"))),
	}}
	p := buildPlan(r, -1, NewDB(), true)
	if got := fmt.Sprint(p.order()); got != "[0 1 2]" {
		t.Fatalf("written-order plan order = %v, want [0 1 2]", got)
	}
}

func TestPlanFiltersFloatToEarliestBoundPoint(t *testing.T) {
	// The comparison y < 5 and the negation ¬Bad(x) are written first but
	// must wait for their variables; each must run immediately after the
	// atom binding its last variable, not at the end.
	r := Rule{ID: "fl", Head: NewHead("Out", HV("x"), HV("y")), Body: []Literal{
		Cmp(V("y"), OpLt, C(schema.Int(5))),
		Neg(NewAtom("Bad", V("x"))),
		Pos(NewAtom("A", V("x"))),
		Pos(NewAtom("B", V("x"), V("y"))),
	}}
	db := NewDB()
	db.AddTuple("A", schema.NewTuple(schema.Int(1)))
	for i := int64(0); i < 50; i++ {
		db.AddTuple("B", schema.NewTuple(schema.Int(1), schema.Int(i)))
	}
	p := buildPlan(r, -1, db, false)
	// A (smaller) first, then ¬Bad(x) immediately, then B, then y<5.
	if got := fmt.Sprint(p.order()); got != "[2 1 3 0]" {
		t.Fatalf("plan order = %v (%s), want [2 1 3 0]", got, p)
	}
}

func TestPlanComparisonStaysAfterVariablesBind(t *testing.T) {
	// x < y cannot run until both scans have bound their variables, even
	// though it is written first.
	r := Rule{ID: "cmp", Head: NewHead("Out", HV("x"), HV("y")), Body: []Literal{
		Cmp(V("x"), OpLt, V("y")),
		Pos(NewAtom("A", V("x"))),
		Pos(NewAtom("B", V("y"))),
	}}
	p := buildPlan(r, -1, NewDB(), false)
	order := p.order()
	if order[len(order)-1] != 0 {
		t.Fatalf("plan order = %v: comparison must come after both scans", order)
	}
}

func TestPlanCacheKeyIsStructural(t *testing.T) {
	// Rule.String renders the variable x and the string constant "x"
	// identically, and Int(1) and Float(1) both as "1"; evaluation must not
	// conflate them.
	prog := &Program{Rules: []Rule{
		{ID: "int", Head: NewHead("H", HV("y")), Body: []Literal{
			Pos(NewAtom("R", V("y"), C(schema.Int(1))))}},
		{ID: "float", Head: NewHead("H", HV("y")), Body: []Literal{
			Pos(NewAtom("R", V("y"), C(schema.Float(1))))}},
		{ID: "var", Head: NewHead("G", HV("y")), Body: []Literal{
			Pos(NewAtom("S", V("y"), V("x")))}},
		{ID: "const", Head: NewHead("G", HV("y")), Body: []Literal{
			Pos(NewAtom("S", V("y"), C(schema.String("x"))))}},
	}}
	edb := NewDB()
	edb.AddTuple("R", schema.NewTuple(schema.String("viaInt"), schema.Int(1)))
	edb.AddTuple("R", schema.NewTuple(schema.String("viaFloat"), schema.Float(1)))
	edb.AddTuple("S", schema.NewTuple(schema.String("viaVar"), schema.String("anything")))
	res, err := EvalCtx(context.Background(), prog, edb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"viaInt", "viaFloat"} {
		if !res.Rel("H").Contains(schema.NewTuple(schema.String(want))) {
			t.Errorf("H(%s) missing: int/float constant rules shared a plan", want)
		}
	}
	if !res.Rel("G").Contains(schema.NewTuple(schema.String("viaVar"))) {
		t.Error("G(viaVar) missing: var rule shared the string-constant rule's plan")
	}
}

// --- evaluation equivalence across planner settings ---

// equivPrograms builds a set of (program, edb) workloads covering the
// engine's features: recursion, negation, builtins, skolems, repeated
// variables, constants, cross products, and single-atom rules.
func equivPrograms() map[string]func() (*Program, *DB) {
	return map[string]func() (*Program, *DB){
		"transitive-closure": func() (*Program, *DB) {
			// Witness-set provenance on cyclic graphs is combinatorial in
			// graph density, so this stays small and sparse (the truncated
			// and set-semantics variants cover scale).
			edb := NewDB()
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 6; i++ {
				for j := 0; j < 6; j++ {
					if i != j && rng.Float64() < 0.25 {
						edb.Add("E", edge(fmt.Sprint("v", i), fmt.Sprint("v", j)),
							provenance.NewVar(provenance.Var(fmt.Sprintf("e%d_%d", i, j))))
					}
				}
			}
			return tcProgram(), edb
		},
		"stratified-negation": func() (*Program, *DB) {
			prog := tcProgram()
			prog.Rules = append(prog.Rules,
				Rule{ID: "n1", Head: NewHead("N", HV("x")), Body: []Literal{Pos(NewAtom("E", V("x"), V("y")))}},
				Rule{ID: "n2", Head: NewHead("N", HV("y")), Body: []Literal{Pos(NewAtom("E", V("x"), V("y")))}},
				Rule{ID: "u", Head: NewHead("U", HV("x"), HV("y")), Body: []Literal{
					Pos(NewAtom("N", V("x"))), Pos(NewAtom("N", V("y"))), Neg(NewAtom("T", V("x"), V("y")))}},
			)
			edb := NewDB()
			for _, e := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"e", "f"}} {
				edb.AddTuple("E", edge(e[0], e[1]))
			}
			return prog, edb
		},
		"builtins-and-constants": func() (*Program, *DB) {
			prog := &Program{Rules: []Rule{
				{ID: "lt", Head: NewHead("L", HV("x"), HV("y")), Body: []Literal{
					Pos(NewAtom("N", V("x"))), Pos(NewAtom("N", V("y"))), Cmp(V("x"), OpLt, V("y"))}},
				{ID: "c", Head: NewHead("C5", HV("y")), Body: []Literal{
					Pos(NewAtom("P", C(schema.Int(5)), V("y")))}},
			}}
			edb := NewDB()
			for i := int64(1); i <= 6; i++ {
				edb.AddTuple("N", schema.NewTuple(schema.Int(i)))
				edb.AddTuple("P", schema.NewTuple(schema.Int(i%3+4), schema.Int(i)))
			}
			return prog, edb
		},
		"skolem-split": func() (*Program, *DB) {
			prog := &Program{Rules: []Rule{
				{ID: "m1", ProvToken: "M1", Head: NewHead("O", HV("org"), HSkolem("f_oid", V("org"))),
					Body: []Literal{Pos(NewAtom("OPS", V("org"), V("prot"), V("seq")))}},
				{ID: "m2", ProvToken: "M2", Head: NewHead("P", HV("prot"), HSkolem("f_oid", V("org"))),
					Body: []Literal{Pos(NewAtom("OPS", V("org"), V("prot"), V("seq")))}},
			}}
			edb := NewDB()
			for i := 0; i < 6; i++ {
				edb.Add("OPS", schema.NewTuple(
					schema.String(fmt.Sprint("org", i%2)), schema.String(fmt.Sprint("p", i)), schema.String("ACGT")),
					provenance.NewVar(provenance.Var(fmt.Sprint("t", i))))
			}
			return prog, edb
		},
		"repeated-vars-and-self-join": func() (*Program, *DB) {
			prog := &Program{Rules: []Rule{
				{ID: "self", Head: NewHead("S", HV("x")), Body: []Literal{Pos(NewAtom("E", V("x"), V("x")))}},
				{ID: "tri", Head: NewHead("Tri", HV("x"), HV("y"), HV("z")), Body: []Literal{
					Pos(NewAtom("E", V("x"), V("y"))), Pos(NewAtom("E", V("y"), V("z"))), Pos(NewAtom("E", V("z"), V("x")))}},
			}}
			edb := NewDB()
			edges := [][2]string{{"a", "a"}, {"a", "b"}, {"b", "c"}, {"c", "a"}, {"c", "d"}}
			for i, e := range edges {
				edb.Add("E", edge(e[0], e[1]), provenance.NewVar(provenance.Var(fmt.Sprint("e", i))))
			}
			return prog, edb
		},
		"cross-product": func() (*Program, *DB) {
			// No shared variables at all: the planner must still enumerate
			// the full product, whatever order it picks.
			prog := &Program{Rules: []Rule{{ID: "x", Head: NewHead("X", HV("a"), HV("b")), Body: []Literal{
				Pos(NewAtom("L", V("a"))), Pos(NewAtom("R", V("b")))}}}}
			edb := NewDB()
			for i := int64(0); i < 4; i++ {
				edb.AddTuple("L", schema.NewTuple(schema.Int(i)))
				edb.AddTuple("R", schema.NewTuple(schema.Int(10+i)))
			}
			return prog, edb
		},
		"single-atom-rule": func() (*Program, *DB) {
			prog := &Program{Rules: []Rule{{ID: "cp", ProvToken: "M", Head: NewHead("Out", HV("x")),
				Body: []Literal{Pos(NewAtom("In", V("x")))}}}}
			edb := NewDB()
			for i := int64(0); i < 5; i++ {
				edb.Add("In", schema.NewTuple(schema.Int(i)), provenance.NewVar(provenance.Var(fmt.Sprint("b", i))))
			}
			return prog, edb
		},
	}
}

// requireDBsEqual asserts byte-identical relations and provenance.
func requireDBsEqual(t *testing.T, name string, want, got *DB) {
	t.Helper()
	wp, gp := want.Preds(), got.Preds()
	if fmt.Sprint(wp) != fmt.Sprint(gp) {
		t.Fatalf("%s: predicates differ: %v vs %v", name, wp, gp)
	}
	for _, pred := range wp {
		wf, gf := want.Rel(pred).Facts(), got.Rel(pred).Facts()
		if len(wf) != len(gf) {
			t.Fatalf("%s: %s has %d facts, want %d", name, pred, len(gf), len(wf))
		}
		for i := range wf {
			if !wf[i].Tuple.Equal(gf[i].Tuple) {
				t.Fatalf("%s: %s fact %d: %v != %v", name, pred, i, gf[i].Tuple, wf[i].Tuple)
			}
			if !wf[i].Prov.Equal(gf[i].Prov) {
				t.Fatalf("%s: %s %v provenance: %v != %v", name, pred, wf[i].Tuple, gf[i].Prov, wf[i].Prov)
			}
		}
	}
}

// evalWrittenOrder is Eval with every plan joining in written order: the
// production driver without the greedy planner.
func evalWrittenOrder(p *Program, edb *DB, opts Options) (*DB, error) {
	strata, err := p.Stratify()
	if err != nil {
		return nil, err
	}
	db := edb.Snapshot()
	ensurePreds(p, db)
	for _, stratum := range strata {
		if err := evalStratum(context.Background(), stratum, writtenOrderPlans(stratum, db), stratumNeed(stratum), db, opts, &stratumScratch{}, nil); err != nil {
			return nil, err
		}
	}
	return db, nil
}

func TestPlannerEquivalentToWrittenOrder(t *testing.T) {
	for name, build := range equivPrograms() {
		for _, prov := range []bool{false, true} {
			for _, maxMono := range []int{0, 2} {
				if maxMono != 0 && !prov {
					continue
				}
				prog, edb := build()
				base := Options{Provenance: prov, MaxMonomials: maxMono}
				want, err := evalWrittenOrder(prog, edb, base)
				if err != nil {
					t.Fatal(err)
				}
				got, err := EvalCtx(context.Background(), prog, edb, base)
				if err != nil {
					t.Fatal(err)
				}
				requireDBsEqual(t, fmt.Sprintf("%s/prov=%v/max=%d", name, prov, maxMono), want, got)
			}
		}
	}
}

// --- edge cases through the full Eval path ---

func TestAllUnboundCrossProductEnumeratesFully(t *testing.T) {
	prog := &Program{Rules: []Rule{{ID: "x", Head: NewHead("X", HV("a"), HV("b"), HV("c")), Body: []Literal{
		Pos(NewAtom("A", V("a"))), Pos(NewAtom("B", V("b"))), Pos(NewAtom("C", V("c")))}}}}
	edb := NewDB()
	for i := int64(0); i < 3; i++ {
		edb.AddTuple("A", schema.NewTuple(schema.Int(i)))
		edb.AddTuple("B", schema.NewTuple(schema.Int(i)))
		edb.AddTuple("C", schema.NewTuple(schema.Int(i)))
	}
	res, err := EvalCtx(context.Background(), prog, edb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel("X").Len() != 27 {
		t.Errorf("cross product = %d facts, want 27", res.Rel("X").Len())
	}
}

func TestNegationAgainstEmptyRelation(t *testing.T) {
	// The negated predicate has no extent at all.
	prog := &Program{Rules: []Rule{{ID: "n", Head: NewHead("Out", HV("x")), Body: []Literal{
		Pos(NewAtom("A", V("x"))), Neg(NewAtom("Gone", V("x")))}}}}
	edb := NewDB()
	edb.AddTuple("A", schema.NewTuple(schema.Int(1)))
	res, err := EvalCtx(context.Background(), prog, edb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel("Out").Len() != 1 {
		t.Errorf("Out = %v", res.Rel("Out").Facts())
	}
}

func TestEmptyBodyIntermediateTerminatesEarly(t *testing.T) {
	// Middle atom has an empty extent: the rule fires zero times and the
	// planner's early termination must not error.
	prog := &Program{Rules: []Rule{{ID: "e", Head: NewHead("Out", HV("x"), HV("z")), Body: []Literal{
		Pos(NewAtom("A", V("x"), V("y"))), Pos(NewAtom("Empty", V("y"), V("z")))}}}}
	edb := NewDB()
	edb.AddTuple("A", schema.NewTuple(schema.Int(1), schema.Int(2)))
	res, err := EvalCtx(context.Background(), prog, edb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel("Out").Len() != 0 {
		t.Errorf("Out = %v", res.Rel("Out").Facts())
	}
}

func TestStressTransitiveClosureMatchesOracle(t *testing.T) {
	// A dense random graph: long semi-naive runs with large deltas, checked
	// against the recursive reference evaluator.
	edb := NewDB()
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 25; i++ {
		for j := 0; j < 25; j++ {
			if i != j && rng.Float64() < 0.15 {
				edb.AddTuple("E", edge(fmt.Sprint("v", i), fmt.Sprint("v", j)))
			}
		}
	}
	want, err := oracleEval(tcProgram(), edb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := EvalCtx(context.Background(), tcProgram(), edb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireDBsEqual(t, "stress-tc", want, got)
}

// --- index layer maintenance ---

func TestIndexMaintainedAcrossPutAndRemove(t *testing.T) {
	r := NewRel()
	tu := func(a, b int64) schema.Tuple { return schema.NewTuple(schema.Int(a), schema.Int(b)) }
	for i := int64(0); i < 10; i++ {
		r.put(tu(i%2, i), provenance.One())
	}
	// Build two indexes, then mutate and re-probe.
	if n := len(r.Lookup([]int{0}, schema.NewTuple(schema.Int(0)))); n != 5 {
		t.Fatalf("col-0 probe = %d, want 5", n)
	}
	if n := len(r.Lookup(nil, nil)); n != 10 {
		t.Fatalf("full scan = %d, want 10", n)
	}
	r.put(tu(0, 100), provenance.One())
	if n := len(r.Lookup([]int{0}, schema.NewTuple(schema.Int(0)))); n != 6 {
		t.Fatalf("col-0 probe after insert = %d, want 6", n)
	}
	removeTuple(r, tu(0, 100))
	removeTuple(r, tu(0, 0))
	if n := len(r.Lookup([]int{0}, schema.NewTuple(schema.Int(0)))); n != 4 {
		t.Fatalf("col-0 probe after remove = %d, want 4", n)
	}
	if n := len(r.Lookup(nil, nil)); n != 9 {
		t.Fatalf("full scan after remove = %d, want 9", n)
	}
	// Probing a drained bucket must be empty, not stale.
	if n := len(r.Lookup([]int{1}, schema.NewTuple(schema.Int(100)))); n != 0 {
		t.Fatalf("removed key still indexed: %d facts", n)
	}
}
