package exchange

import (
	"context"
	"testing"

	"orchestra/internal/updates"
	"orchestra/internal/workload"
)

func fig2Engine(t *testing.T) *Engine {
	t.Helper()
	return fig2EngineWith(t, Config{})
}

func fig2EngineWith(t testing.TB, cfg Config) *Engine {
	t.Helper()
	e, err := NewEngineWith(workload.Figure2Peers(), workload.Figure2Mappings(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func txn(peer string, seq uint64, us ...updates.Update) *updates.Transaction {
	return &updates.Transaction{ID: updates.TxnID{Peer: peer, Seq: seq}, Updates: us}
}

func TestInsertPropagatesThroughJoin(t *testing.T) {
	e := fig2Engine(t)
	// Alaska publishes O, P, S tuples in one transaction.
	res, err := e.Apply(context.Background(), txn(workload.Alaska, 1,
		updates.Insert("O", workload.OTuple("mouse", 1)),
		updates.Insert("P", workload.PTuple("p53", 10)),
		updates.Insert("S", workload.STuple(1, 10, "ACGT")),
	))
	if err != nil {
		t.Fatal(err)
	}
	// Beijing gets all three via the identity mapping.
	if got := len(res.PerPeer[workload.Beijing]); got != 3 {
		t.Errorf("beijing updates = %v", res.PerPeer[workload.Beijing])
	}
	// Crete gets the joined OPS tuple.
	cre := res.PerPeer[workload.Crete]
	if len(cre) != 1 || cre[0].Op != updates.OpInsert ||
		!cre[0].New.Equal(workload.OPSTuple("mouse", "p53", "ACGT")) {
		t.Errorf("crete updates = %v", cre)
	}
	// Dresden gets it too (via Crete's identity mapping — the mapping
	// graph composes M_AC with M_CD).
	dre := res.PerPeer[workload.Dresden]
	if len(dre) != 1 || !dre[0].New.Equal(workload.OPSTuple("mouse", "p53", "ACGT")) {
		t.Errorf("dresden updates = %v", dre)
	}
	// Alaska's own updates are included for uniformity (plus skolemized
	// echo tuples may appear; at minimum the three originals).
	if got := len(res.PerPeer[workload.Alaska]); got < 3 {
		t.Errorf("alaska updates = %v", res.PerPeer[workload.Alaska])
	}
}

func TestJoinNeedsAllThreeParts(t *testing.T) {
	e := fig2Engine(t)
	// O and P alone do not produce an OPS tuple.
	res, err := e.Apply(context.Background(), txn(workload.Alaska, 1,
		updates.Insert("O", workload.OTuple("mouse", 1)),
		updates.Insert("P", workload.PTuple("p53", 10)),
	))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerPeer[workload.Crete]) != 0 {
		t.Errorf("premature OPS: %v", res.PerPeer[workload.Crete])
	}
	// The S tuple published later completes the join.
	res, err = e.Apply(context.Background(), txn(workload.Alaska, 2,
		updates.Insert("S", workload.STuple(1, 10, "ACGT"))))
	if err != nil {
		t.Fatal(err)
	}
	cre := res.PerPeer[workload.Crete]
	if len(cre) != 1 || !cre[0].New.Equal(workload.OPSTuple("mouse", "p53", "ACGT")) {
		t.Errorf("crete updates = %v", cre)
	}
}

func TestCrossTxnJoinYieldsExtraDeps(t *testing.T) {
	e := fig2Engine(t)
	if _, err := e.Apply(context.Background(), txn(workload.Alaska, 1,
		updates.Insert("O", workload.OTuple("mouse", 1)),
		updates.Insert("P", workload.PTuple("p53", 10)))); err != nil {
		t.Fatal(err)
	}
	// Beijing publishes the S tuple; the OPS derivation at Crete joins
	// Beijing's S with Alaska's O and P (via identity B→A), so the
	// candidate at Crete must gain a dependency on Alaska's txn.
	res, err := e.Apply(context.Background(), txn(workload.Beijing, 1,
		updates.Insert("S", workload.STuple(1, 10, "ACGT"))))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerPeer[workload.Crete]) != 1 {
		t.Fatalf("crete updates = %v", res.PerPeer[workload.Crete])
	}
	deps := res.ExtraDeps[workload.Crete]
	want := updates.TxnID{Peer: workload.Alaska, Seq: 1}
	found := false
	for _, d := range deps {
		if d == want {
			found = true
		}
	}
	if !found {
		t.Errorf("crete extra deps = %v, want to include %v", deps, want)
	}
}

func TestSplitMappingInventsSharedNulls(t *testing.T) {
	e := fig2Engine(t)
	res, err := e.Apply(context.Background(), txn(workload.Crete, 1,
		updates.Insert("OPS", workload.OPSTuple("fly", "myc", "GATTACA"))))
	if err != nil {
		t.Fatal(err)
	}
	// Alaska receives O, P, S with invented ids.
	al := res.PerPeer[workload.Alaska]
	if len(al) != 3 {
		t.Fatalf("alaska updates = %v", al)
	}
	var oid, sOid interface{ Key() string }
	for _, u := range al {
		switch u.Rel {
		case "O":
			if !u.New[1].IsLabeledNull() {
				t.Errorf("oid not invented: %v", u.New)
			}
			oid = u.New[1]
		case "S":
			sOid = u.New[0]
		}
	}
	if oid == nil || sOid == nil || oid.Key() != sOid.Key() {
		t.Errorf("skolem oid not shared between O and S: %v vs %v", oid, sOid)
	}
}

func TestDeletePropagates(t *testing.T) {
	e := fig2Engine(t)
	if _, err := e.Apply(context.Background(), txn(workload.Alaska, 1,
		updates.Insert("O", workload.OTuple("mouse", 1)),
		updates.Insert("P", workload.PTuple("p53", 10)),
		updates.Insert("S", workload.STuple(1, 10, "ACGT")))); err != nil {
		t.Fatal(err)
	}
	// Delete the S tuple: Crete's OPS tuple loses its only derivation.
	res, err := e.Apply(context.Background(), txn(workload.Alaska, 2,
		updates.Delete("S", workload.STuple(1, 10, "ACGT"))))
	if err != nil {
		t.Fatal(err)
	}
	cre := res.PerPeer[workload.Crete]
	if len(cre) != 1 || cre[0].Op != updates.OpDelete ||
		!cre[0].Old.Equal(workload.OPSTuple("mouse", "p53", "ACGT")) {
		t.Errorf("crete updates = %v", cre)
	}
	// Beijing loses its copy of S.
	foundDel := false
	for _, u := range res.PerPeer[workload.Beijing] {
		if u.Op == updates.OpDelete && u.Rel == "S" {
			foundDel = true
		}
	}
	if !foundDel {
		t.Errorf("beijing updates = %v", res.PerPeer[workload.Beijing])
	}
}

func TestDeleteWithAlternativeDerivationKeepsTuple(t *testing.T) {
	e := fig2Engine(t)
	// Alaska and Beijing both publish the same O tuple.
	if _, err := e.Apply(context.Background(), txn(workload.Alaska, 1,
		updates.Insert("O", workload.OTuple("mouse", 1)))); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply(context.Background(), txn(workload.Beijing, 1,
		updates.Insert("O", workload.OTuple("mouse", 1)))); err != nil {
		t.Fatal(err)
	}
	// Alaska deletes its copy. Beijing's still supports the tuple at both
	// peers, so no deletion is emitted anywhere.
	res, err := e.Apply(context.Background(), txn(workload.Alaska, 2,
		updates.Delete("O", workload.OTuple("mouse", 1))))
	if err != nil {
		t.Fatal(err)
	}
	for peer, us := range res.PerPeer {
		for _, u := range us {
			if u.Op == updates.OpDelete {
				t.Errorf("%s got spurious delete %v", peer, u)
			}
		}
	}
}

func TestModifyTranslatesToModify(t *testing.T) {
	e := fig2Engine(t)
	if _, err := e.Apply(context.Background(), txn(workload.Alaska, 1,
		updates.Insert("O", workload.OTuple("mouse", 1)),
		updates.Insert("P", workload.PTuple("p53", 10)),
		updates.Insert("S", workload.STuple(1, 10, "ACGT")))); err != nil {
		t.Fatal(err)
	}
	// Modify the sequence: Crete sees a modification of its OPS tuple
	// (same (org, prot) key, new seq).
	res, err := e.Apply(context.Background(), txn(workload.Beijing, 1,
		updates.Modify("S", workload.STuple(1, 10, "ACGT"), workload.STuple(1, 10, "TTTT"))))
	if err != nil {
		t.Fatal(err)
	}
	cre := res.PerPeer[workload.Crete]
	if len(cre) != 1 || cre[0].Op != updates.OpModify {
		t.Fatalf("crete updates = %v", cre)
	}
	if !cre[0].Old.Equal(workload.OPSTuple("mouse", "p53", "ACGT")) ||
		!cre[0].New.Equal(workload.OPSTuple("mouse", "p53", "TTTT")) {
		t.Errorf("modify = %v", cre[0])
	}
}

func TestDuplicateApplyRejected(t *testing.T) {
	e := fig2Engine(t)
	tx := txn(workload.Alaska, 1, updates.Insert("O", workload.OTuple("mouse", 1)))
	if _, err := e.Apply(context.Background(), tx); err != nil {
		t.Fatal(err)
	}
	if !e.Applied(tx.ID) {
		t.Error("Applied() false")
	}
	tx2 := txn(workload.Alaska, 1, updates.Insert("O", workload.OTuple("rat", 2)))
	if _, err := e.Apply(context.Background(), tx2); err == nil {
		t.Error("duplicate transaction accepted")
	}
}

func TestUnknownPeerAndRelation(t *testing.T) {
	e := fig2Engine(t)
	if _, err := e.Apply(context.Background(), txn("nowhere", 1, updates.Insert("O", workload.OTuple("x", 1)))); err == nil {
		t.Error("unknown peer accepted")
	}
	if _, err := e.Apply(context.Background(), txn(workload.Alaska, 1, updates.Insert("OPS", workload.OPSTuple("x", "y", "z")))); err == nil {
		t.Error("unknown relation accepted")
	}
}

func TestMaterializePeerTrustFiltering(t *testing.T) {
	e := fig2Engine(t)
	aTx := txn(workload.Alaska, 1,
		updates.Insert("O", workload.OTuple("mouse", 1)),
		updates.Insert("P", workload.PTuple("p53", 10)),
		updates.Insert("S", workload.STuple(1, 10, "ACGT")))
	dTx := txn(workload.Dresden, 1,
		updates.Insert("OPS", workload.OPSTuple("rat", "ins", "CCCC")))
	if _, err := e.Apply(context.Background(), aTx); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply(context.Background(), dTx); err != nil {
		t.Fatal(err)
	}
	// Crete trusting everyone sees both OPS tuples.
	all, err := e.MaterializePeer(context.Background(), workload.Crete, func(updates.TxnID) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if all.Table("OPS").Len() != 2 {
		t.Errorf("crete sees %d OPS tuples, want 2", all.Table("OPS").Len())
	}
	// Crete trusting only Dresden sees only Dresden's tuple.
	onlyD, err := e.MaterializePeer(context.Background(), workload.Crete, func(id updates.TxnID) bool {
		return id.Peer == workload.Dresden
	})
	if err != nil {
		t.Fatal(err)
	}
	if onlyD.Table("OPS").Len() != 1 ||
		!onlyD.Table("OPS").Rows()[0].Tuple.Equal(workload.OPSTuple("rat", "ins", "CCCC")) {
		t.Errorf("crete(trust dresden) = %v", onlyD.Table("OPS").Rows())
	}
}

func TestRecomputeMatchesIncremental(t *testing.T) {
	e := fig2Engine(t)
	txns := []*updates.Transaction{
		txn(workload.Alaska, 1,
			updates.Insert("O", workload.OTuple("mouse", 1)),
			updates.Insert("P", workload.PTuple("p53", 10)),
			updates.Insert("S", workload.STuple(1, 10, "ACGT"))),
		txn(workload.Crete, 1,
			updates.Insert("OPS", workload.OPSTuple("fly", "myc", "GGGG"))),
		txn(workload.Beijing, 1,
			updates.Insert("S", workload.STuple(1, 10, "AAAA"))),
		txn(workload.Alaska, 2,
			updates.Delete("S", workload.STuple(1, 10, "ACGT"))),
	}
	for _, tx := range txns {
		if _, err := e.Apply(context.Background(), tx); err != nil {
			t.Fatal(err)
		}
	}
	batch, err := e.Recompute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	incDB := e.UnionDB()
	for _, pred := range batch.Preds() {
		if batch.Rel(pred).Len() != incDB.Rel(pred).Len() {
			t.Errorf("%s: batch=%d incremental=%d", pred, batch.Rel(pred).Len(), incDB.Rel(pred).Len())
		}
		for _, f := range batch.Rel(pred).Facts() {
			if !incDB.Rel(pred).Contains(f.Tuple) {
				t.Errorf("%s: missing %v", pred, f.Tuple)
			}
		}
	}
}
