package datalog

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

// groupsProgram is a small recursive program with a join, so batched
// propagation exercises multi-round derivation and cross-group monomials:
//
//	T(x,z) :- E(x,y), T(y,z).    T(x,y) :- E(x,y).
//	J(x,z) :- E(x,y), F(y,z).
func groupsProgram(t *testing.T) *Program {
	t.Helper()
	p := &Program{Rules: []Rule{
		{ID: "tc1", Head: NewHead("T", HV("x"), HV("y")),
			Body: []Literal{Pos(NewAtom("E", V("x"), V("y")))}},
		{ID: "tc2", Head: NewHead("T", HV("x"), HV("z")),
			Body: []Literal{Pos(NewAtom("E", V("x"), V("y"))), Pos(NewAtom("T", V("y"), V("z")))}},
		{ID: "j", Head: NewHead("J", HV("x"), HV("z")),
			Body: []Literal{Pos(NewAtom("E", V("x"), V("y"))), Pos(NewAtom("F", V("y"), V("z")))}},
	}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// randomGroups builds n insertion groups of random E/F edges over a small
// node domain, each fact carrying a unique token (the update-exchange
// shape).
func randomGroups(rng *rand.Rand, n, perGroup, domain int) [][]Fact2 {
	groups := make([][]Fact2, n)
	tok := 0
	for gi := range groups {
		for f := 0; f < perGroup; f++ {
			pred := "E"
			if rng.Intn(3) == 0 {
				pred = "F"
			}
			tu := schema.NewTuple(schema.Int(int64(rng.Intn(domain))), schema.Int(int64(rng.Intn(domain))))
			groups[gi] = append(groups[gi], Fact2{
				Pred:  pred,
				Tuple: tu,
				Prov:  provenance.NewVar(provenance.Var(fmt.Sprintf("g%d:%d/%d", gi, gi+1, tok))),
			})
			tok++
		}
	}
	return groups
}

func dbsEqual(t *testing.T, label string, a, b *DB) {
	t.Helper()
	ap, bp := a.Preds(), b.Preds()
	if len(ap) != len(bp) {
		t.Fatalf("%s: predicate sets differ: %v vs %v", label, ap, bp)
	}
	for i, p := range ap {
		if bp[i] != p {
			t.Fatalf("%s: predicate sets differ: %v vs %v", label, ap, bp)
		}
		af, bf := a.Rel(p).Facts(), b.Rel(p).Facts()
		if len(af) != len(bf) {
			t.Fatalf("%s: %s has %d vs %d facts", label, p, len(af), len(bf))
		}
		for j := range af {
			if !af[j].Tuple.Equal(bf[j].Tuple) {
				t.Fatalf("%s: %s fact %d: %v vs %v", label, p, j, af[j].Tuple, bf[j].Tuple)
			}
			if !af[j].Prov.Equal(bf[j].Prov) {
				t.Fatalf("%s: %s%v provenance: %v vs %v", label, p, af[j].Tuple, af[j].Prov, bf[j].Prov)
			}
		}
	}
}

// changesEqual compares two change lists on the projection that is stable
// under batching: which tuples changed freshly (or were removed), and the
// accumulated annotation delta per tuple. Individual merge granularity —
// how many Change records a tuple's new monomials split across, and which
// split carries the Fresh flag's provenance — legitimately differs on
// adversarial recursive programs, because batched propagation measures
// derivation heights from the batch seeds rather than each group's seeds.
// The exchange-layer equivalence tests check the collated per-transaction
// results (provenance included) strictly on update-exchange workloads.
func changesEqual(t *testing.T, label string, a, b []Change) {
	t.Helper()
	project := func(cs []Change) (visible []string, growth map[string]provenance.Poly) {
		growth = map[string]provenance.Poly{}
		for _, c := range cs {
			if c.Fresh || c.Removed {
				visible = append(visible, fmt.Sprintf("%s|%s|fresh=%v|removed=%v", c.Pred, c.Tuple.Key(), c.Fresh, c.Removed))
			}
			k := c.Pred + "|" + c.Tuple.Key()
			growth[k] = growth[k].Add(c.Prov)
		}
		sort.Strings(visible)
		return visible, growth
	}
	av, ag := project(a)
	bv, bg := project(b)
	if len(av) != len(bv) {
		t.Fatalf("%s: %d vs %d visible changes\n a=%v\n b=%v", label, len(av), len(bv), av, bv)
	}
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("%s: visible change %d differs:\n a=%s\n b=%s", label, i, av[i], bv[i])
		}
	}
	if len(ag) != len(bg) {
		t.Fatalf("%s: %d vs %d touched tuples", label, len(ag), len(bg))
	}
	for k, ap := range ag {
		if bp, ok := bg[k]; !ok || !ap.Equal(bp) {
			t.Fatalf("%s: accumulated delta for %s differs: %v vs %v", label, k, ap, bg[k])
		}
	}
}

// InsertGroups must yield, per group, exactly the changes sequential Insert
// calls would, and leave the maintained database in the same state.
func TestInsertGroupsMatchesSequentialInserts(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		prog := groupsProgram(t)
		// Unbounded witness sets: the equivalence guarantee is exact when
		// the MaxMonomials bound does not bind (see InsertGroups doc).
		opts := Options{Provenance: true}
		seq, err := NewIncremental(prog, NewDB(), opts)
		if err != nil {
			t.Fatal(err)
		}
		bat, err := NewIncremental(prog, NewDB(), opts)
		if err != nil {
			t.Fatal(err)
		}
		groups := randomGroups(rng, 2+rng.Intn(6), 1+rng.Intn(4), 4+rng.Intn(4))

		var want [][]Change
		for _, g := range groups {
			cs, err := seq.Insert(context.Background(), g)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, cs)
		}
		got, err := bat.InsertGroups(context.Background(), groups)
		if err != nil {
			t.Fatal(err)
		}
		for gi := range groups {
			changesEqual(t, fmt.Sprintf("trial %d group %d", trial, gi), want[gi], got[gi])
		}
		dbsEqual(t, fmt.Sprintf("trial %d", trial), seq.DB(), bat.DB())
	}
}

// A token-free seed annotation (provenance.One) leaves derived monomials
// with no trace of their group, so InsertGroups must fall back to
// sequential insertion rather than misattribute them to group 0.
func TestInsertGroupsTokenFreeSeedsFallBack(t *testing.T) {
	prog := groupsProgram(t)
	opts := Options{Provenance: true}
	seq, _ := NewIncremental(prog, NewDB(), opts)
	bat, _ := NewIncremental(prog, NewDB(), opts)
	e := func(a, b int64) schema.Tuple { return schema.NewTuple(schema.Int(a), schema.Int(b)) }
	groups := [][]Fact2{
		{{Pred: "E", Tuple: e(1, 2), Prov: provenance.NewVar("p:1/0")}},
		{{Pred: "E", Tuple: e(2, 3), Prov: provenance.One()}}, // token-free
	}
	var want [][]Change
	for _, g := range groups {
		cs, err := seq.Insert(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, cs)
	}
	got, err := bat.InsertGroups(context.Background(), groups)
	if err != nil {
		t.Fatal(err)
	}
	for gi := range groups {
		if len(got[gi]) != len(want[gi]) {
			t.Fatalf("group %d: %d vs %d changes\n want=%v\n got=%v", gi, len(want[gi]), len(got[gi]), want[gi], got[gi])
		}
		for i := range got[gi] {
			w, g := want[gi][i], got[gi][i]
			if w.Pred != g.Pred || !w.Tuple.Equal(g.Tuple) || w.Fresh != g.Fresh || !w.Prov.Equal(g.Prov) {
				t.Fatalf("group %d change %d: want %+v, got %+v", gi, i, w, g)
			}
		}
	}
	dbsEqual(t, "token-free", seq.DB(), bat.DB())
}

// A batch where later groups re-insert tuples earlier groups created (same
// tuple, fresh token) exercises the cross-group replay path.
func TestInsertGroupsCrossGroupTuples(t *testing.T) {
	prog := groupsProgram(t)
	opts := Options{Provenance: true, MaxMonomials: 8}
	seq, _ := NewIncremental(prog, NewDB(), opts)
	bat, _ := NewIncremental(prog, NewDB(), opts)
	e := func(a, b int64) schema.Tuple { return schema.NewTuple(schema.Int(a), schema.Int(b)) }
	groups := [][]Fact2{
		{{Pred: "E", Tuple: e(1, 2), Prov: provenance.NewVar("p:1/0")}},
		{{Pred: "E", Tuple: e(2, 3), Prov: provenance.NewVar("p:2/0")}},
		// Same edge again under a new token: annotation growth, not a fresh
		// tuple, and the T-closure gains mixed-group monomials.
		{{Pred: "E", Tuple: e(1, 2), Prov: provenance.NewVar("p:3/0")},
			{Pred: "F", Tuple: e(3, 4), Prov: provenance.NewVar("p:3/1")}},
	}
	var want [][]Change
	for _, g := range groups {
		cs, err := seq.Insert(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, cs)
	}
	got, err := bat.InsertGroups(context.Background(), groups)
	if err != nil {
		t.Fatal(err)
	}
	for gi := range groups {
		changesEqual(t, fmt.Sprintf("group %d", gi), want[gi], got[gi])
	}
	dbsEqual(t, "final", seq.DB(), bat.DB())
}
