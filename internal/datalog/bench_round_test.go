package datalog

import (
	"context"
	"fmt"
	"testing"

	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

// BenchmarkIncrementalRounds measures consecutive incremental fixpoints on
// one maintained Incremental — the stratum driver's steady state, small
// delta rounds one after another.
func BenchmarkIncrementalRounds(b *testing.B) {
	prog := &Program{Rules: []Rule{{
		ID:   "tc",
		Head: NewHead("T", HV("x"), HV("z")),
		Body: []Literal{
			Pos(NewAtom("E", V("x"), V("y"))),
			Pos(NewAtom("E", V("y"), V("z"))),
		},
	}}}
	edb := NewDB()
	for i := int64(0); i < 256; i++ {
		edb.AddTuple("E", schema.NewTuple(schema.Int(i), schema.Int(i+1)))
	}
	inc, err := NewIncremental(prog, edb, Options{Provenance: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := int64(10_000 + i)
		batch := []Fact2{
			{Pred: "E", Tuple: schema.NewTuple(schema.Int(k), schema.Int(k+1)),
				Prov: provenance.NewVar(provenance.Var(fmt.Sprint("a", i)))},
			{Pred: "E", Tuple: schema.NewTuple(schema.Int(k+1), schema.Int(k+2)),
				Prov: provenance.NewVar(provenance.Var(fmt.Sprint("b", i)))},
		}
		if _, err := inc.Insert(context.Background(), batch); err != nil {
			b.Fatal(err)
		}
	}
}
