package exchange

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"orchestra/internal/mapping"
	"orchestra/internal/schema"
	"orchestra/internal/updates"
	"orchestra/internal/workload"
)

// resultsEqual asserts two translation results are identical: per-peer
// update lists (ops, tuples, and provenance) and dependency sets.
func resultsEqual(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if len(want.PerPeer) != len(got.PerPeer) {
		t.Fatalf("%s: peers with updates: %d vs %d\n want=%v\n got=%v", label, len(want.PerPeer), len(got.PerPeer), want.PerPeer, got.PerPeer)
	}
	for peer, wus := range want.PerPeer {
		gus := got.PerPeer[peer]
		if len(wus) != len(gus) {
			t.Fatalf("%s: %s updates: %d vs %d\n want=%v\n got=%v", label, peer, len(wus), len(gus), wus, gus)
		}
		for i := range wus {
			w, g := wus[i], gus[i]
			tupEq := func(a, b schema.Tuple) bool {
				if (a == nil) != (b == nil) {
					return false
				}
				return a == nil || a.Equal(b)
			}
			if w.Rel != g.Rel || w.Op != g.Op || !tupEq(w.Old, g.Old) || !tupEq(w.New, g.New) || !w.Prov.Equal(g.Prov) {
				t.Fatalf("%s: %s update %d differs:\n want=%+v prov=%v\n got=%+v prov=%v", label, peer, i, w, w.Prov, g, g.Prov)
			}
		}
	}
	if len(want.ExtraDeps) != len(got.ExtraDeps) {
		t.Fatalf("%s: extra-dep peers: %v vs %v", label, want.ExtraDeps, got.ExtraDeps)
	}
	for peer, wd := range want.ExtraDeps {
		gd := got.ExtraDeps[peer]
		if len(wd) != len(gd) {
			t.Fatalf("%s: %s extra deps: %v vs %v", label, peer, wd, gd)
		}
		for i := range wd {
			if wd[i] != gd[i] {
				t.Fatalf("%s: %s extra deps: %v vs %v", label, peer, wd, gd)
			}
		}
	}
}

// unionDBsEqual asserts the two engines maintain identical union databases,
// stored provenance included.
func unionDBsEqual(t *testing.T, label string, a, b *Engine) {
	t.Helper()
	da, db := a.UnionDB(), b.UnionDB()
	ap, bp := da.Preds(), db.Preds()
	if fmt.Sprint(ap) != fmt.Sprint(bp) {
		t.Fatalf("%s: predicates %v vs %v", label, ap, bp)
	}
	for _, p := range ap {
		fa, fb := da.Rel(p).Facts(), db.Rel(p).Facts()
		if len(fa) != len(fb) {
			t.Fatalf("%s: %s: %d vs %d facts", label, p, len(fa), len(fb))
		}
		for i := range fa {
			if !fa[i].Tuple.Equal(fb[i].Tuple) {
				t.Fatalf("%s: %s fact %d: %v vs %v", label, p, i, fa[i].Tuple, fb[i].Tuple)
			}
			if !fa[i].Prov.Equal(fb[i].Prov) {
				t.Fatalf("%s: %s%v prov: %v vs %v", label, p, fa[i].Tuple, fa[i].Prov, fb[i].Prov)
			}
		}
	}
}

// checkApplyAllEquivalence applies txns one at a time to one engine and as
// a single batch to its twin, both at the given witness bound (-1 for
// unbounded), then compares every per-transaction result and the final union
// databases, annotations included: batched and sequential translation are
// identical on every input at every bound.
func checkApplyAllEquivalence(t *testing.T, label string, maxMonomials int, peers func() map[string]*schema.Schema, mappings func() []*mapping.Mapping, txns []*updates.Transaction) {
	t.Helper()
	cfg := Config{MaxMonomials: maxMonomials}
	seqE, err := NewEngineWith(peers(), mappings(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	batE, err := NewEngineWith(peers(), mappings(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*Result, len(txns))
	for i, txn := range txns {
		res, err := seqE.Apply(context.Background(), txn)
		if err != nil {
			t.Fatalf("%s: sequential apply %s: %v", label, txn.ID, err)
		}
		want[i] = res
	}
	got, err := batE.ApplyAll(context.Background(), txns)
	if err != nil {
		t.Fatalf("%s: ApplyAll: %v", label, err)
	}
	for i := range txns {
		resultsEqual(t, fmt.Sprintf("%s txn %s", label, txns[i].ID), want[i], got[i])
	}
	unionDBsEqual(t, label, seqE, batE)
}

// A multi-peer Figure 2 burst: Alaska and Beijing interleave S publications
// over shared dimension rows, so derived OPS tuples join data across
// transactions of the batch.
func TestApplyAllEquivalenceFigure2Burst(t *testing.T) {
	var txns []*updates.Transaction
	txns = append(txns, workload.OPBaseTxn(workload.Alaska, 1, 4, 6))
	sa := workload.Stream(workload.Alaska, 2, 12, workload.StreamOpts{TxnSize: 2, KeySpace: 4, Seed: 5})
	sb := workload.Stream(workload.Beijing, 1, 12, workload.StreamOpts{TxnSize: 2, KeySpace: 4, Seed: 9})
	for i := range sa {
		txns = append(txns, sa[i], sb[i])
	}
	checkApplyAllEquivalence(t, "fig2", -1, workload.Figure2Peers, workload.Figure2Mappings, txns)
}

// Deletions and modifications split the batch: the run around them must
// still translate identically, including the foreign deletion of derived
// data (kill sets) mid-burst.
func TestApplyAllEquivalenceWithDeletes(t *testing.T) {
	var txns []*updates.Transaction
	txns = append(txns, workload.OPBaseTxn(workload.Alaska, 1, 3, 4))
	s1 := workload.STuple(0, 1, "AAAA")
	s2 := workload.STuple(1, 2, "CCCC")
	txns = append(txns,
		txn(workload.Alaska, 2, updates.Insert("S", s1)),
		txn(workload.Beijing, 1, updates.Insert("S", s2)),
		// Beijing deletes derived data it received from Alaska.
		txn(workload.Beijing, 2, updates.Delete("S", s1)),
		txn(workload.Alaska, 3, updates.Insert("S", workload.STuple(2, 3, "GGGG"))),
		// Alaska retracts its own row (true deletion, kills the token).
		txn(workload.Alaska, 4, updates.Delete("S", s1)),
		txn(workload.Alaska, 5, updates.Modify("S", workload.STuple(2, 3, "GGGG"), workload.STuple(2, 3, "TTTT"))),
		txn(workload.Beijing, 3, updates.Insert("S", workload.STuple(0, 3, "AATT"))),
	)
	checkApplyAllEquivalence(t, "deletes", -1, workload.Figure2Peers, workload.Figure2Mappings, txns)
}

// An identity mesh: every insert echoes through every peer, the same logical
// tuple is published by different peers (cross-transaction shared derived
// tuples), and one peer re-publishes its own tuple.
func TestApplyAllEquivalenceMeshOverlap(t *testing.T) {
	topo := workload.Mesh(3)
	s := func(k int64, seq string) schema.Tuple { return workload.STuple(k, k, seq) }
	for name, txns := range map[string][]*updates.Transaction{
		"overlap": {
			txn("p00", 1, updates.Insert("S", s(1, "AA"))),
			txn("p01", 1, updates.Insert("S", s(1, "AA"))), // same tuple, different peer
			txn("p02", 1, updates.Insert("S", s(2, "CC"))),
			txn("p00", 2, updates.Insert("S", s(2, "CC"))), // echo of p02's data
			txn("p00", 3, updates.Insert("S", s(1, "AA"))), // re-publish: seed overlap with own txn 1
			txn("p01", 2, updates.Insert("S", s(3, "GG"))),
		},
		// p01.S(1) exists before p00's re-publish derives it again, and
		// then p01 publishes it: only p01's transaction reports it as an
		// insert.
		"pre-existing": {
			txn("p00", 1, updates.Insert("S", s(1, "AA")), updates.Insert("S", s(2, "CC"))),
			txn("p00", 2, updates.Delete("S", s(2, "CC"))),
			txn("p00", 3, updates.Insert("S", s(1, "AA"))),
			txn("p01", 1, updates.Insert("S", s(1, "AA"))),
		},
	} {
		checkApplyAllEquivalence(t, "mesh "+name, -1,
			func() map[string]*schema.Schema { return topo.Peers },
			func() []*mapping.Mapping { return topo.Mappings },
			txns)
	}
}

// Under a binding witness bound a batched insert keeps its annotation:
// Beijing's later publication evicts Alaska's derivation of beijing.O(ot)
// from the stored witness set, yet Alaska's insert carries the witness its
// own Apply gives it.
func TestApplyAllEquivalenceEvictedWitness(t *testing.T) {
	ot := workload.OTuple("mouse", 3)
	checkApplyAllEquivalence(t, "evicted", 1, workload.Figure2Peers, workload.Figure2Mappings, []*updates.Transaction{
		txn(workload.Alaska, 1, updates.Insert("O", ot)),
		txn(workload.Alaska, 2, updates.Insert("O", ot)), // re-seeds alaska.O(ot)
		txn(workload.Beijing, 1, updates.Insert("O", ot)),
	})
}

// Alaska's transaction derives beijing.S(st), and three later ones
// re-publish it at Beijing, at witness bound 3. Had the four seeded one
// propagation, the three single-token seeds would fill the bound before
// Alaska's derivation arrived, and Alaska's transaction would lose the
// insert its own Apply reports.
func TestApplyAllSplitsAtReseededTuple(t *testing.T) {
	st := workload.STuple(1, 2, "ACGT")
	txns := []*updates.Transaction{
		txn(workload.Alaska, 1, updates.Insert("S", st)),
		txn(workload.Beijing, 1, updates.Insert("S", st)),
		txn(workload.Beijing, 2, updates.Insert("S", st)),
		txn(workload.Beijing, 3, updates.Insert("S", st)),
	}
	checkApplyAllEquivalence(t, "reseeded", 3, workload.Figure2Peers, workload.Figure2Mappings, txns)
	e := fig2EngineWith(t, Config{MaxMonomials: 3})
	got, err := e.ApplyAll(context.Background(), txns)
	if err != nil {
		t.Fatal(err)
	}
	if len(got[0].PerPeer[workload.Beijing]) != 1 {
		t.Fatalf("alaska:1 must report beijing's derived S insert, got %v", got[0].PerPeer)
	}
}

// Randomized property: arbitrary multi-peer insert/delete/modify streams,
// re-publishes included, over the Figure 2 CDSS translate identically
// batched and sequential, unbounded and at witness bounds that bind.
func TestApplyAllEquivalenceProperty(t *testing.T) {
	for _, bound := range []int{-1, 1, 2, 3, 8} {
		for trial := 0; trial < 12; trial++ {
			checkApplyAllEquivalence(t, fmt.Sprintf("bound %d trial %d", bound, trial), bound,
				workload.Figure2Peers, workload.Figure2Mappings, propertyTxns(int64(100+trial)))
		}
	}
}

// propertyTxns builds one random Figure 2 history from seed: an O/P base,
// then 8 to 23 transactions at Alaska or Beijing, each inserting,
// re-publishing, deleting or modifying S rows.
func propertyTxns(seed int64) []*updates.Transaction {
	rng := rand.New(rand.NewSource(seed))
	var txns []*updates.Transaction
	txns = append(txns, workload.OPBaseTxn(workload.Alaska, 1, 3, 5))
	seqs := map[string]uint64{workload.Alaska: 2, workload.Beijing: 1, workload.Crete: 1}
	peers := []string{workload.Alaska, workload.Beijing}
	var live []schema.Tuple
	n := 8 + rng.Intn(16)
	for i := 0; i < n; i++ {
		peer := peers[rng.Intn(len(peers))]
		id := updates.TxnID{Peer: peer, Seq: seqs[peer]}
		seqs[peer]++
		var ups []updates.Update
		k := 1 + rng.Intn(2)
		for j := 0; j < k; j++ {
			switch {
			case len(live) > 0 && rng.Intn(4) == 0:
				// Re-publish a live tuple, at its publisher or at a peer
				// that holds it as derived data.
				ups = append(ups, updates.Insert("S", live[rng.Intn(len(live))]))
			case len(live) > 0 && rng.Intn(5) == 0:
				// Delete a random previously inserted tuple (possibly at
				// a peer that only holds it as derived data).
				tu := live[rng.Intn(len(live))]
				ups = append(ups, updates.Delete("S", tu))
			case len(live) > 0 && rng.Intn(6) == 0:
				tu := live[rng.Intn(len(live))]
				nw := workload.STuple(tu[0].IntVal(), tu[1].IntVal(), fmt.Sprintf("MOD%d", i))
				ups = append(ups, updates.Modify("S", tu, nw))
				live = append(live, nw)
			default:
				tu := workload.STuple(int64(rng.Intn(3)), int64(10+rng.Intn(8)), fmt.Sprintf("SEQ%d_%d", i, j))
				ups = append(ups, updates.Insert("S", tu))
				live = append(live, tu)
			}
		}
		txns = append(txns, &updates.Transaction{ID: id, Updates: ups})
	}
	return txns
}

// ApplyAll validates the whole batch up front: a duplicate or malformed
// transaction rejects the batch before any state changes.
func TestApplyAllValidatesUpfront(t *testing.T) {
	e := fig2Engine(t)
	good := txn(workload.Alaska, 1, updates.Insert("O", workload.OTuple("mouse", 1)))
	bad := txn(workload.Alaska, 2, updates.Insert("Nope", workload.OTuple("mouse", 1)))
	if _, err := e.ApplyAll(context.Background(), []*updates.Transaction{good, bad}); !errors.Is(err, ErrUnknownRelation) {
		t.Fatalf("expected ErrUnknownRelation, got %v", err)
	}
	if e.Applied(good.ID) {
		t.Fatal("validation failure must not apply any transaction of the batch")
	}
	if _, err := e.ApplyAll(context.Background(), []*updates.Transaction{good, good}); !errors.Is(err, ErrAlreadyApplied) {
		t.Fatalf("expected ErrAlreadyApplied for in-batch duplicate, got %v", err)
	}
	if _, err := e.Apply(context.Background(), good); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ApplyAll(context.Background(), []*updates.Transaction{good}); !errors.Is(err, ErrAlreadyApplied) {
		t.Fatalf("expected ErrAlreadyApplied, got %v", err)
	}
}
