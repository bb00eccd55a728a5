package datalog_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"orchestra/internal/datalog"
	"orchestra/internal/mapping"
	"orchestra/internal/provenance"
	"orchestra/internal/schema"
	"orchestra/internal/workload"
)

// A derivation that only adds a witness to a stored row merges into the
// stored fact: the change Insert reports carries the stored tuple itself,
// not a copy of it. On a three-peer identity mesh, p00 publishes O(a),
// which the mappings derive at p01 and p02; p01 then publishes the same
// tuple, whose derivations back to p00 and on to p02 only gain witnesses.
func TestStoredRowNotCopied(t *testing.T) {
	topo := workload.Mesh(3)
	prog, err := mapping.Compile(topo.Mappings)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := datalog.NewIncremental(prog, datalog.NewDB(), datalog.Options{
		Provenance: true, ChaseSubsumption: true, MaxMonomials: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tu := workload.OTuple("a", 1)
	if _, err := inc.Insert(ctx, []datalog.Fact2{{Pred: mapping.Qualify(topo.Names[0], "O"), Tuple: tu, Prov: provenance.NewVar("x")}}); err != nil {
		t.Fatal(err)
	}
	cs, err := inc.Insert(ctx, []datalog.Fact2{{Pred: mapping.Qualify(topo.Names[1], "O"), Tuple: tu.Clone(), Prov: provenance.NewVar("y")}})
	if err != nil {
		t.Fatal(err)
	}
	witnessOnly := 0
	for _, c := range cs {
		if c.Fresh || c.Removed {
			continue
		}
		witnessOnly++
		f, ok := inc.DB().Rel(c.Pred).Get(c.Tuple)
		if !ok {
			t.Fatalf("%s%v: changed but not stored", c.Pred, c.Tuple)
		}
		if unsafe.SliceData(c.Tuple) != unsafe.SliceData(f.Tuple) {
			t.Errorf("%s%v: the change carries a copy of the stored tuple", c.Pred, c.Tuple)
		}
	}
	if witnessOnly == 0 {
		t.Fatalf("no change only added a witness: %v", cs)
	}
}

// skolemProgram derives Q(x, y, f(x), g(x, y)) from R(x, y): two Skolem
// terms in one head.
func skolemProgram() *datalog.Program {
	return &datalog.Program{Rules: []datalog.Rule{{
		ID: "m", ProvToken: "M",
		Head: datalog.NewHead("Q", datalog.HV("x"), datalog.HV("y"),
			datalog.HSkolem("f", datalog.V("x")), datalog.HSkolem("g", datalog.V("x"), datalog.V("y"))),
		Body: []datalog.Literal{datalog.Pos(datalog.NewAtom("R", datalog.V("x"), datalog.V("y")))},
	}}}
}

// renderDB renders every fact of db with its annotation, in canonical order.
func renderDB(db *datalog.DB) string {
	var b strings.Builder
	for _, pred := range db.Preds() {
		for _, f := range db.Rel(pred).Facts() {
			fmt.Fprintf(&b, "%s%v @ %s\n", pred, f.Tuple, f.Prov)
		}
	}
	return b.String()
}

// Many rows with two Skolem terms each, derived by one Insert, are stored
// with their own terms: each labeled null spells its application over the
// row's own values, and the database equals a full evaluation's. The terms
// of a row are built side by side in one reused buffer, so a term that
// overlapped its neighbor, or a stored row that kept viewing the buffer,
// would show here.
func TestSkolemTermsOfManyRowsInOneInsert(t *testing.T) {
	prog := skolemProgram()
	inc, err := datalog.NewIncremental(prog, datalog.NewDB(), datalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	edb := datalog.NewDB()
	var base []datalog.Fact2
	for x := range 100 {
		for y := range 3 {
			tu := schema.NewTuple(schema.Int(int64(x)), schema.String(fmt.Sprintf("y%d", y)))
			p := provenance.NewVar(provenance.Var(fmt.Sprintf("r%d_%d", x, y)))
			base = append(base, datalog.Fact2{Pred: "R", Tuple: tu, Prov: p})
			edb.Add("R", tu, p)
		}
	}
	if _, err := inc.Insert(context.Background(), base); err != nil {
		t.Fatal(err)
	}
	key := func(v schema.Value) string { return string(v.AppendKeyTo(nil)) }
	q := inc.DB().Rel("Q").Facts()
	if len(q) != len(base) {
		t.Fatalf("Q holds %d facts, want %d", len(q), len(base))
	}
	for _, f := range q {
		x, y := key(f.Tuple[0]), key(f.Tuple[1])
		want := schema.NewTuple(f.Tuple[0], f.Tuple[1],
			schema.LabeledNull("f("+x+")"), schema.LabeledNull("g("+x+","+y+")"))
		if !f.Tuple.Equal(want) {
			t.Fatalf("stored %v, want %v", f.Tuple, want)
		}
	}
	full, err := datalog.NewIncremental(prog, edb, datalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderDB(inc.DB()), renderDB(full.DB()); got != want {
		t.Fatalf("incremental database differs from full evaluation:\n got %s\nwant %s", got, want)
	}
}

// Re-deriving a stored Skolem row allocates nothing for its term: with
// every R(1, y) annotated alike, each derivation of Q(1, y, f(1), ...)
// past the first ones is absorbed, and doubling them leaves an
// evaluation's allocation count where it was.
func TestSkolemRederivationAllocatesNoTerm(t *testing.T) {
	prog := &datalog.Program{Rules: []datalog.Rule{{
		ID:   "m",
		Head: datalog.NewHead("Q", datalog.HV("x"), datalog.HSkolem("f", datalog.V("x"))),
		Body: []datalog.Literal{datalog.Pos(datalog.NewAtom("R", datalog.V("x"), datalog.V("y")))},
	}}}
	pp, err := datalog.Prepare(prog)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(rows int) float64 {
		edb := datalog.NewDB()
		for y := range rows {
			edb.Add("R", schema.NewTuple(schema.Int(1), schema.Int(int64(y))), provenance.NewVar("a"))
		}
		eval := func() {
			out, err := pp.Eval(context.Background(), edb, datalog.Options{Provenance: true})
			if err != nil || out.Rel("Q").Len() != 1 {
				t.Fatalf("Q = %v, err %v; want one fact", out.Rel("Q").Facts(), err)
			}
		}
		eval()
		return testing.AllocsPerRun(10, eval)
	}
	const rows = 256
	if few, many := allocs(rows), allocs(2*rows); many-few > 2 {
		t.Errorf("%d more re-derivations of a stored Skolem row allocated %v more times (%v, then %v)", rows, many-few, few, many)
	}
}
