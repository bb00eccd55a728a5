package datalog

import (
	"context"
	"fmt"
	"testing"

	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

// BenchmarkIncrementalRounds measures consecutive incremental fixpoints on
// one maintained Incremental — the executor's steady state, small delta
// rounds one after another. Sweeps the parallelism settings so allocation
// and fan-out overhead per setting show up in -benchmem: workers=4 sends
// every round of two or more jobs through the parallel fan-out.
func BenchmarkIncrementalRounds(b *testing.B) {
	prog := &Program{Rules: []Rule{{
		ID:   "tc",
		Head: NewHead("T", HV("x"), HV("z")),
		Body: []Literal{
			Pos(NewAtom("E", V("x"), V("y"))),
			Pos(NewAtom("E", V("y"), V("z"))),
		},
	}}}
	for _, m := range []struct {
		name string
		par  int
	}{{"sequential", -1}, {"workers=4", 4}, {"adaptive", 0}} {
		b.Run(m.name, func(b *testing.B) {
			edb := NewDB()
			for i := int64(0); i < 256; i++ {
				edb.AddTuple("E", schema.NewTuple(schema.Int(i), schema.Int(i+1)))
			}
			inc, err := NewIncremental(prog, edb, Options{Provenance: true, Parallelism: m.par})
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
		})
	}
}
