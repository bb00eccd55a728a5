package datalog

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

// The streaming iterator pipelines (pipeline.go) and the stratum driver
// (evalStratum, eval.go) must produce byte-identical databases — tuples AND
// provenance polynomials — to the recursive reference evaluator
// (oracle_test.go), across every workload shape and provenance mode.

func TestStreamingEquivalentToOracle(t *testing.T) {
	for name, build := range equivPrograms() {
		for _, prov := range []bool{false, true} {
			for _, maxMono := range []int{0, 2} {
				if maxMono != 0 && !prov {
					continue
				}
				prog, edb := build()
				opts := Options{Provenance: prov, MaxMonomials: maxMono}
				want, err := oracleEval(prog, edb, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := EvalCtx(context.Background(), prog, edb, opts)
				if err != nil {
					t.Fatal(err)
				}
				requireDBsEqual(t, fmt.Sprintf("%s/prov=%v/max=%d", name, prov, maxMono), want, got)
			}
		}
	}
}

func TestStreamingExactProvenanceMatchesOracle(t *testing.T) {
	// The untruncated witness set (MaxMonomials 0) through a join and a
	// projection of it, where one head tuple gathers several witnesses.
	prog := &Program{Rules: []Rule{
		{ID: "a", Head: NewHead("A", HV("x"), HV("z")), Body: []Literal{
			Pos(NewAtom("E", V("x"), V("y"))), Pos(NewAtom("E", V("y"), V("z")))}},
		{ID: "b", Head: NewHead("B", HV("x")), Body: []Literal{
			Pos(NewAtom("A", V("x"), V("z")))}},
	}}
	edb := NewDB()
	for i := 0; i < 5; i++ {
		edb.Add("E", edge(fmt.Sprint("n", i%3), fmt.Sprint("n", (i+1)%4)),
			provenance.NewVar(provenance.Var(fmt.Sprint("e", i))))
	}
	opts := Options{Provenance: true}
	want, err := oracleEval(prog, edb, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EvalCtx(context.Background(), prog, edb, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireDBsEqual(t, "exact", want, got)
}

// incOracle pairs a maintained fixpoint with the base facts it has been
// given, so every step can be checked against the reference evaluator's
// full evaluation of the accumulated base.
type incOracle struct {
	t    *testing.T
	prog *Program
	inc  *Incremental
	base *DB
}

func newIncOracle(t *testing.T, prog *Program, edb *DB, opts Options) *incOracle {
	t.Helper()
	inc, err := NewIncremental(prog, edb, opts)
	if err != nil {
		t.Fatal(err)
	}
	o := &incOracle{t: t, prog: prog, inc: inc, base: edb.Snapshot()}
	o.check("initial-fixpoint")
	return o
}

// check requires the maintained database to equal the oracle's full
// evaluation of the accumulated base facts, and returns that evaluation.
func (o *incOracle) check(label string) *DB {
	o.t.Helper()
	want, err := oracleEval(o.prog, o.base, Options{Provenance: true})
	if err != nil {
		o.t.Fatal(err)
	}
	requireDBsEqual(o.t, label, want, o.inc.DB())
	return want
}

// insert runs the facts of every group through one Insert and checks the
// state and the change log against full evaluations before and after: a
// tuple's reported annotation deltas, added to what it carried before, give
// what it carries now; a change is Fresh exactly when the tuple was absent;
// and every tuple whose annotation grew is reported.
func (o *incOracle) insert(label string, groups ...[]Fact2) {
	o.t.Helper()
	before := o.check(label + "/before")
	changes, err := o.inc.Insert(context.Background(), slices.Concat(groups...))
	if err != nil {
		o.t.Fatal(err)
	}
	for _, g := range groups {
		for _, f := range g {
			o.base.Add(f.Pred, f.Tuple, f.Prov)
		}
	}
	after := o.check(label)
	sums := map[string]provenance.Poly{}
	for _, c := range changes {
		k := c.Pred + "\x00" + c.Tuple.Key()
		sum, seen := sums[k]
		if !seen {
			if f, ok := before.Rel(c.Pred).Get(c.Tuple); ok {
				sum = f.Prov
			}
		}
		if c.Fresh != sum.IsZero() {
			o.t.Fatalf("%s: change %v %v: Fresh=%v but prior annotation %v", label, c.Pred, c.Tuple, c.Fresh, sum)
		}
		sums[k] = sum.Add(c.Prov)
	}
	for _, pred := range after.Preds() {
		for _, f := range after.Rel(pred).Facts() {
			got, reported := sums[pred+"\x00"+f.Tuple.Key()]
			if !reported {
				if old, ok := before.Rel(pred).Get(f.Tuple); !ok || !old.Prov.Equal(f.Prov) {
					o.t.Fatalf("%s: %s %v changed without a change record", label, pred, f.Tuple)
				}
				continue
			}
			if !got.Equal(f.Prov) {
				o.t.Fatalf("%s: %s %v: prior + reported deltas = %v, want %v", label, pred, f.Tuple, got, f.Prov)
			}
		}
	}
}

func (o *incOracle) delete(label string, tokens ...provenance.Var) {
	o.t.Helper()
	o.inc.DeleteBase(tokens)
	dead := map[provenance.Var]bool{}
	for _, v := range tokens {
		dead[v] = true
	}
	kept := NewDB()
	for _, pred := range o.base.Preds() {
		kept.Rel(pred)
		for _, f := range o.base.Rel(pred).Facts() {
			if rest := f.Prov.Restrict(func(v provenance.Var) bool { return !dead[v] }); !rest.IsZero() {
				kept.Add(pred, f.Tuple, rest)
			}
		}
	}
	o.base = kept
	o.check(label)
}

func TestIncrementalMatchesOracleFullEval(t *testing.T) {
	edb := NewDB()
	for i := 0; i < 8; i++ {
		edb.Add("E", edge(fmt.Sprint("n", i), fmt.Sprint("n", i+1)),
			provenance.NewVar(provenance.Var(fmt.Sprint("e", i))))
	}
	o := newIncOracle(t, tcProgram(), edb, Options{})
	o.insert("insert", []Fact2{
		{Pred: "E", Tuple: edge("n8", "n0"), Prov: provenance.NewVar("loop")},
		{Pred: "E", Tuple: edge("x", "y"), Prov: provenance.NewVar("xy")},
	})
	o.delete("delete", "loop", "e3")
	// A group-committed burst: two groups meeting in one derived tuple
	// (y→z and z→n0 both extend x→y), and a second witness for one that
	// is already stored.
	o.insert("groups",
		[]Fact2{{Pred: "E", Tuple: edge("y", "z"), Prov: provenance.NewVar("yz")}},
		[]Fact2{{Pred: "E", Tuple: edge("z", "n0"), Prov: provenance.NewVar("zn0")}},
		[]Fact2{{Pred: "E", Tuple: edge("n3", "n4"), Prov: provenance.NewVar("e3b")}},
	)
	o.delete("delete-group", "yz")
}

func TestStreamingLargeDeltaEquivalence(t *testing.T) {
	// A large delta over few jobs: each job emits a long run of head facts,
	// each merged as it is derived, in the delta's key order.
	edb := NewDB()
	for i := int64(0); i < 8; i++ {
		edb.AddTuple("E", schema.NewTuple(schema.Int(i), schema.Int(i+1)))
	}
	o := newIncOracle(t, tcProgram(), edb, Options{})
	// Disjoint edges: a big delta without a combinatorial closure.
	batch := make([]Fact2, 0, 1200)
	for i := int64(0); i < 1200; i++ {
		batch = append(batch, Fact2{
			Pred:  "E",
			Tuple: schema.NewTuple(schema.Int(1000+2*i), schema.Int(1000+2*i+1)),
			Prov:  provenance.NewVar(provenance.Var(fmt.Sprint("t", i))),
		})
	}
	o.insert("large-delta", batch)
}

func TestDeltaHashJoinEquivalence(t *testing.T) {
	// A delta atom with a constant column and a delta extent beyond
	// deltaHashMin takes the transient-hash path; results must match the
	// oracle's linear scan exactly, and the build must be observable.
	prog := &Program{Rules: []Rule{{
		ID:   "sel",
		Head: NewHead("Out", HV("y")),
		Body: []Literal{Pos(NewAtom("P", C(schema.Int(7)), V("y")))},
	}}}
	var stats EvalStats
	o := newIncOracle(t, prog, NewDB(), Options{Stats: &stats})
	batch := make([]Fact2, 0, 4*deltaHashMin)
	for i := int64(0); i < 4*deltaHashMin; i++ {
		batch = append(batch, Fact2{
			Pred:  "P",
			Tuple: schema.NewTuple(schema.Int(i%9), schema.Int(i)),
			Prov:  provenance.NewVar(provenance.Var(fmt.Sprint("p", i))),
		})
	}
	o.insert("delta-hash", batch)
	if stats.HashJoinBuilds.Load() == 0 {
		t.Error("expected at least one delta hash build on a probed delta this large")
	}
}

func TestEvalStatsCounters(t *testing.T) {
	// A rule with a pushed-down equality filter: the probe counters, the
	// pushdown hit rate, and the emission counters must all be live.
	prog := &Program{Rules: []Rule{{
		ID:   "f",
		Head: NewHead("Out", HV("x"), HV("y")),
		Body: []Literal{
			Pos(NewAtom("R", V("x"), V("y"))),
			Cmp(V("y"), OpEq, C(schema.Int(3))),
		},
	}}}
	edb := NewDB()
	for i := int64(0); i < 40; i++ {
		edb.AddTuple("R", schema.NewTuple(schema.Int(i), schema.Int(i%5)))
	}
	var stats EvalStats
	res, err := EvalCtx(context.Background(), prog, edb, Options{Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rel("Out").Len(); got != 8 {
		t.Fatalf("Out has %d facts, want 8", got)
	}
	if stats.Probes.Load() == 0 {
		t.Error("Probes = 0")
	}
	if stats.PushdownProbes.Load() == 0 {
		t.Error("PushdownProbes = 0: the y=3 equality did not reach the probe key")
	}
	if p, pp := stats.Probes.Load(), stats.PushdownProbes.Load(); pp > p {
		t.Errorf("PushdownProbes = %d > Probes = %d", pp, p)
	}
	if got := stats.Emitted.Load(); got != 8 {
		t.Errorf("Emitted = %d, want 8", got)
	}
	// Pushdown means the index bucket only surfaced matching rows.
	if c := stats.Candidates.Load(); c != 8 {
		t.Errorf("Candidates = %d, want 8 (pushdown should hide non-matching rows)", c)
	}
	if stats.Rounds.Load() == 0 {
		t.Error("Rounds = 0")
	}
	if stats.String() == "" {
		t.Error("String() empty")
	}
}
