package orchestra_test

// Micro-benchmarks for the individual substrates, complementing the E1–E7
// experiment benchmarks: storage writes and indexed lookups, provenance
// polynomial arithmetic, datalog fixpoints, wire codec, and trust-policy
// evaluation.

import (
	"fmt"
	"testing"

	"orchestra/internal/datalog"
	"orchestra/internal/p2p"
	"orchestra/internal/provenance"
	"orchestra/internal/recon"
	"orchestra/internal/schema"
	"orchestra/internal/storage"
	"orchestra/internal/updates"
	"orchestra/internal/workload"
)

func BenchmarkStorageInsert(b *testing.B) {
	tbl := storage.NewTable(workload.Sigma1().Relation("S"))
	// The first insert allocates the extent's 256-fact slab and builds the
	// key index; keep that one-off out of the per-insert figures (the
	// regression gate runs this at -benchtime=1x).
	if err := tbl.Insert(workload.STuple(-1, -1, "ACGT"), provenance.One()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := int64(i)
		if err := tbl.Insert(workload.STuple(k, k, "ACGT"), provenance.One()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInstanceDiff(b *testing.B) {
	base := storage.NewInstance(workload.Sigma1())
	cur := storage.NewInstance(workload.Sigma1())
	for i := int64(0); i < 5000; i++ {
		if err := base.Insert("S", workload.STuple(i, i, "A"), provenance.One()); err != nil {
			b.Fatal(err)
		}
		tu := workload.STuple(i, i, "A")
		if i%10 == 0 {
			tu = workload.STuple(i, i, "B") // 10% modified
		}
		if err := cur.Insert("S", tu, provenance.One()); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := cur.Diff(base)
		if err != nil || d.Count() != 1000 {
			b.Fatalf("diff = %d, %v", d.Count(), err)
		}
	}
}

func BenchmarkPolyMul(b *testing.B) {
	mk := func(n int, prefix string) provenance.Poly {
		p := provenance.Zero()
		for i := 0; i < n; i++ {
			p = p.Add(provenance.NewVar(provenance.Var(fmt.Sprint(prefix, i))))
		}
		return p
	}
	p8, q8 := mk(8, "x"), mk(8, "y")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p8.Mul(q8)
	}
}

// BenchmarkPolyIntern measures the hash-consing cache: rebuilding a
// recurring polynomial should hit the cache and share one allocation, and
// equality/subsumption on shared values should be pointer-fast.
func BenchmarkPolyIntern(b *testing.B) {
	mk := func() provenance.Poly {
		p := provenance.Zero()
		for i := 0; i < 8; i++ {
			m := provenance.NewVar(provenance.Var(fmt.Sprint("a", i))).
				Mul(provenance.NewVar(provenance.Var(fmt.Sprint("b", i))))
			p = p.Add(m)
		}
		return p
	}
	b.Run("rebuild-shared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = mk()
		}
	})
	p, q := mk(), mk()
	b.Run("equal-interned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !p.Equal(q) {
				b.Fatal("equal polynomials compare unequal")
			}
		}
	})
	b.Run("subsumes", func(b *testing.B) {
		small := provenance.NewVar("a3").Mul(provenance.NewVar("b3"))
		for i := 0; i < b.N; i++ {
			if !p.Subsumes(small) {
				b.Fatal("subsumption failed")
			}
		}
	})
}

// BenchmarkDBSnapshot compares the O(#preds) copy-on-write snapshot with
// the eager deep clone on a populated database, and prices the first
// post-snapshot write (which copy-on-write-clones one extent).
func BenchmarkDBSnapshot(b *testing.B) {
	build := func() *datalog.DB {
		db := datalog.NewDB()
		for p := 0; p < 8; p++ {
			pred := fmt.Sprint("R", p)
			for i := int64(0); i < 2000; i++ {
				db.Add(pred, schema.NewTuple(schema.Int(i), schema.Int(i%97)),
					provenance.NewVar(provenance.Var(fmt.Sprint("t", p, "_", i))))
			}
		}
		return db
	}
	b.Run("snapshot", func(b *testing.B) {
		db := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = db.Snapshot()
		}
	})
	b.Run("clone", func(b *testing.B) {
		db := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = db.Clone()
		}
	})
	b.Run("snapshot-first-write", func(b *testing.B) {
		db := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = db.Snapshot()
			// The write lands on a shared extent and pays one COW clone.
			db.Add("R0", schema.NewTuple(schema.Int(int64(i)+1000000), schema.Int(0)), provenance.One())
		}
	})
}

func BenchmarkPolyEvalTrust(b *testing.B) {
	p := provenance.Zero()
	for i := 0; i < 8; i++ {
		m := provenance.NewVar(provenance.Var(fmt.Sprint("a", i))).
			Mul(provenance.NewVar(provenance.Var(fmt.Sprint("b", i))))
		p = p.Add(m)
	}
	assign := func(v provenance.Var) float64 { return 0.5 + float64(len(v)%2)*0.25 }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = provenance.Eval[float64](p, provenance.TrustSemiring{}, assign)
	}
}

func BenchmarkDatalogTransitiveClosure(b *testing.B) {
	prog := &datalog.Program{Rules: []datalog.Rule{
		{ID: "tc1", Head: datalog.NewHead("T", datalog.HV("x"), datalog.HV("y")),
			Body: []datalog.Literal{datalog.Pos(datalog.NewAtom("E", datalog.V("x"), datalog.V("y")))}},
		{ID: "tc2", Head: datalog.NewHead("T", datalog.HV("x"), datalog.HV("z")),
			Body: []datalog.Literal{
				datalog.Pos(datalog.NewAtom("T", datalog.V("x"), datalog.V("y"))),
				datalog.Pos(datalog.NewAtom("E", datalog.V("y"), datalog.V("z")))}},
	}}
	edb := datalog.NewDB()
	for i := 0; i < 60; i++ {
		edb.AddTuple("E", schema.NewTuple(schema.Int(int64(i)), schema.Int(int64(i+1))))
	}
	b.Run("set-semantics", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := datalog.Eval(prog, edb, datalog.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("witness-provenance", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := datalog.Eval(prog, edb, datalog.Options{Provenance: true, MaxMonomials: 8}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkWireCodec(b *testing.B) {
	txn := &updates.Transaction{
		ID:    updates.TxnID{Peer: "alaska", Seq: 42},
		Epoch: 7,
		Updates: []updates.Update{
			updates.Insert("S", workload.STuple(1, 10, "ACGTACGTACGT")),
			updates.Modify("S", workload.STuple(2, 20, "AAAA"), workload.STuple(2, 20, "TTTT")),
			updates.Delete("O", workload.OTuple("mouse", 1)),
		},
		Deps: []updates.TxnID{{Peer: "beijing", Seq: 1}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := p2p.EncodeTxn(txn)
		if _, err := p2p.DecodeTxn(w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrustPolicyEvaluation(b *testing.B) {
	pol := &recon.Policy{Conditions: []recon.Condition{
		recon.FromPeer("beijing", 2),
		recon.FromPeer("dresden", 1),
		recon.OnRelation("OPS", 3),
		recon.DerivedFromPeer("alaska", 2),
	}, Default: recon.Distrusted}
	u := updates.Insert("OPS", workload.OPSTuple("mouse", "p53", "ACGT"))
	u.Prov = provenance.NewVar("alaska:1/0").Mul(provenance.NewVar("M_AC"))
	txn := &updates.Transaction{
		ID:      updates.TxnID{Peer: "beijing", Seq: 1},
		Updates: []updates.Update{u, u, u},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Max matching condition is OnRelation("OPS", 3).
		if pol.PriorityOf(txn) != 3 {
			b.Fatal("priority wrong")
		}
	}
}

func BenchmarkTupleKey(b *testing.B) {
	tu := workload.STuple(123456, 789012, "ACGTACGTACGTACGT")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tu.Key()
	}
}

// BenchmarkTupleKeyEncode is the uncached reference encoding — what every
// Key() call cost before memoization.
func BenchmarkTupleKeyEncode(b *testing.B) {
	tu := workload.STuple(123456, 789012, "ACGTACGTACGTACGT")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = string(tu.AppendKeyTo(make([]byte, 0, 64)))
	}
}

// BenchmarkTupleKeyE2WorkingSet models the E2 incremental path: the same
// modest working set of tuples is re-keyed at every layer (storage merge,
// collation, write-set tracking), so nearly every call is a cache hit.
func BenchmarkTupleKeyE2WorkingSet(b *testing.B) {
	const n = 256
	tuples := make([]schema.Tuple, n)
	for i := range tuples {
		tuples[i] = workload.STuple(int64(i), int64(i%37), workload.Sequence(int64(i), int64(i%37)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tuples[i%n].Key()
	}
}
