package datalog

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
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

// One Insert of several groups' facts — the form update exchange feeds a
// seed-disjoint stretch of a batch in — must leave the maintained database
// exactly as one Insert per group does, annotations included, while the
// witness bound does not bind.
func TestInsertGroupsMatchesSequentialInserts(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		prog := groupsProgram(t)
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
		for _, g := range groups {
			if _, err := seq.Insert(context.Background(), g); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := bat.Insert(context.Background(), slices.Concat(groups...)); err != nil {
			t.Fatal(err)
		}
		dbsEqual(t, fmt.Sprintf("trial %d", trial), seq.DB(), bat.DB())
	}
}
