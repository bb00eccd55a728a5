package core

import (
	"context"
	"errors"
	"testing"

	"orchestra/internal/p2p"
	"orchestra/internal/recon"
	"orchestra/internal/schema"
	"orchestra/internal/storage"
	"orchestra/internal/updates"
	"orchestra/internal/workload"
)

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(nil, nil); err == nil {
		t.Error("empty system accepted")
	}
	if _, err := NewSystem(map[string]*schema.Schema{"a": nil}, nil); err == nil {
		t.Error("nil schema accepted")
	}
	peers := workload.Figure2Peers()
	ms := workload.Figure2Mappings()
	// Mapping referencing a non-peer.
	bad := workload.JoinMapping("M_bad", "alaska", "nowhere")
	if _, err := NewSystem(peers, append(ms, bad)); err == nil {
		t.Error("mapping to unknown peer accepted")
	}
	sys, err := NewSystem(peers, ms)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Schema("alaska") == nil || sys.Schema("nowhere") != nil {
		t.Error("Schema lookup wrong")
	}
	if len(sys.Mappings()) != len(ms) || len(sys.Peers()) != 4 {
		t.Error("accessors wrong")
	}
}

func TestNewPeerUnknown(t *testing.T) {
	sys, err := NewSystem(workload.Figure2Peers(), workload.Figure2Mappings())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPeer("nowhere", sys, p2p.NewMemoryStore(), recon.TrustAll(1)); err == nil {
		t.Error("unknown peer accepted")
	}
}

func TestCommitValidation(t *testing.T) {
	peers, _ := fig2(t)
	alaska := peers[workload.Alaska]
	// Unknown relation.
	if _, err := alaska.NewTransaction().Insert("NOPE", workload.OTuple("x", 1)).Commit(); err == nil {
		t.Error("unknown relation accepted")
	}
	// Wrong arity.
	if _, err := alaska.NewTransaction().Insert("O", schema.NewTuple(schema.Int(1))).Commit(); err == nil {
		t.Error("bad tuple accepted")
	}
	// Failed commit applies nothing and does not consume a sequence number.
	if instSize(alaska.Instance()) != 0 {
		t.Error("failed commit leaked data")
	}
	// Two inserts under one key inside a single transaction: applied as
	// upserts they would leave the second tuple here and the first at a
	// reconciling peer. Rejected whole, with the detail record.
	_, err := alaska.NewTransaction().
		Insert("P", workload.PTuple("p53", 10)).
		Insert("O", workload.OTuple("mouse", 1)).
		Insert("O", workload.OTuple("rat", 1)).Commit()
	var kv *storage.ErrKeyViolation
	if !errors.As(err, &kv) {
		t.Fatalf("intra-transaction key collision: err = %v", err)
	}
	if kv.Relation != "O" || !kv.Existing.Equal(workload.OTuple("mouse", 1)) || !kv.New.Equal(workload.OTuple("rat", 1)) {
		t.Errorf("violation detail = %+v", kv)
	}
	// Failed commit applies nothing and does not consume a sequence number.
	if instSize(alaska.Instance()) != 0 {
		t.Error("failed commit leaked data")
	}
	// A Delete or Modify of exactly the tuple written earlier frees its key;
	// deleting some other tuple under that key does not.
	for i, tx := range []*Txn{
		alaska.NewTransaction().Insert("O", workload.OTuple("mouse", 1)).
			Delete("O", workload.OTuple("rat", 1)).Insert("O", workload.OTuple("cat", 1)),
		alaska.NewTransaction().Insert("O", workload.OTuple("mouse", 1)).
			Modify("O", workload.OTuple("mouse", 1), workload.OTuple("rat", 1)).Insert("O", workload.OTuple("cat", 1)),
	} {
		if _, err := tx.Commit(); !errors.As(err, &kv) {
			t.Errorf("case %d: err = %v, want key violation", i, err)
		}
	}
	if instSize(alaska.Instance()) != 0 {
		t.Error("failed commit leaked data")
	}
	txn := commit(t, alaska.NewTransaction().
		Insert("O", workload.OTuple("mouse", 1)).
		Delete("O", workload.OTuple("mouse", 1)).
		Insert("O", workload.OTuple("vole", 1)).
		Modify("O", workload.OTuple("vole", 1), workload.OTuple("vole", 7)).
		Insert("O", workload.OTuple("mouse", 1)).
		Insert("O", workload.OTuple("mouse", 1)))
	if txn.ID.Seq != 1 {
		t.Errorf("seq = %d", txn.ID.Seq)
	}
	// Double commit of the same Txn object fails.
	tx := alaska.NewTransaction().Insert("O", workload.OTuple("rat", 2))
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err == nil {
		t.Error("double commit accepted")
	}
	// Abort discards.
	ab := alaska.NewTransaction().Insert("O", workload.OTuple("fly", 3))
	ab.Abort()
	if _, err := ab.Commit(); err == nil {
		t.Error("commit after abort accepted")
	}
}

// The published state is the archive: a commit reaches it at Publish, and
// later local edits stay out of it until republished.
func TestPublishedStateIsTheArchive(t *testing.T) {
	peers, store := fig2(t)
	alaska := peers[workload.Alaska]
	archived := func(tu schema.Tuple) bool {
		txns, _, err := store.Since(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, txn := range txns {
			for _, u := range txn.Updates {
				if u.Rel == "O" && u.New.Equal(tu) {
					return true
				}
			}
		}
		return false
	}
	commit(t, alaska.NewTransaction().Insert("O", workload.OTuple("mouse", 1)))
	publish(t, alaska)
	if !archived(workload.OTuple("mouse", 1)) {
		t.Error("archive missing published tuple")
	}
	commit(t, alaska.NewTransaction().Insert("O", workload.OTuple("rat", 2)))
	if archived(workload.OTuple("rat", 2)) {
		t.Error("archive leaked unpublished edit")
	}
	publish(t, alaska)
	if !archived(workload.OTuple("rat", 2)) {
		t.Error("archive not extended by republish")
	}
}

func TestPublishEmptyDoesNotAdvanceEpoch(t *testing.T) {
	peers, store := fig2(t)
	alaska := peers[workload.Alaska]
	e0, _ := store.Epoch()
	epoch, err := alaska.Publish(context.Background())
	if err != nil || epoch != e0 {
		t.Errorf("empty publish: %d %v", epoch, err)
	}
}

func TestEpochAdvancesAcrossRounds(t *testing.T) {
	peers, _ := fig2(t)
	alaska, beijing := peers[workload.Alaska], peers[workload.Beijing]
	commit(t, alaska.NewTransaction().Insert("O", workload.OTuple("mouse", 1)))
	publish(t, alaska)
	r1 := reconcile(t, beijing)
	if r1.Epoch != 1 || beijing.Epoch() != 1 {
		t.Errorf("epoch after round 1 = %d", r1.Epoch)
	}
	// Reconciling again with nothing new fetches nothing.
	r2 := reconcile(t, beijing)
	if r2.Fetched != 0 || len(r2.Accepted) != 0 {
		t.Errorf("idle reconcile = %+v", r2)
	}
	commit(t, alaska.NewTransaction().Insert("O", workload.OTuple("rat", 2)))
	publish(t, alaska)
	r3 := reconcile(t, beijing)
	if r3.Epoch != 2 || r3.Fetched != 1 {
		t.Errorf("round 3 = %+v", r3)
	}
}

func TestOwnTransactionsNotReapplied(t *testing.T) {
	peers, _ := fig2(t)
	alaska := peers[workload.Alaska]
	commit(t, alaska.NewTransaction().Insert("O", workload.OTuple("mouse", 1)))
	publish(t, alaska)
	r := reconcile(t, alaska)
	if r.Fetched != 1 || len(r.Accepted) != 0 || r.AppliedUpdates != 0 {
		t.Errorf("self reconcile = %+v", r)
	}
	if alaska.Instance().Table("O").Len() != 1 {
		t.Errorf("O duplicated: %v", alaska.Instance().Table("O").Rows())
	}
}

// A Modify that moves a tuple to another key vacates the old key, so the
// next insert at that key depends on the Modify, not on the transaction
// whose tuple used to sit there: a peer that rejected the move must not
// accept the insert over a row its author never saw at that key.
func TestCommitAfterKeyMoveDependsOnTheMove(t *testing.T) {
	peers, _ := fig2(t)
	alaska := peers[workload.Alaska]
	commit(t, alaska.NewTransaction().Insert("O", workload.OTuple("fly", 3)))
	t2 := commit(t, alaska.NewTransaction().Modify("O", workload.OTuple("fly", 3), workload.OTuple("fly", 4)))
	t3 := commit(t, alaska.NewTransaction().Insert("O", workload.OTuple("bee", 3)))
	if len(t3.Deps) != 1 || t3.Deps[0] != t2.ID {
		t.Fatalf("t3 deps = %v, want [%s]", t3.Deps, t2.ID)
	}
}

func TestConvergenceAcrossSharedSchemaPeers(t *testing.T) {
	peers, _ := fig2(t)
	alaska, beijing := peers[workload.Alaska], peers[workload.Beijing]
	commit(t, alaska.NewTransaction().
		Insert("O", workload.OTuple("mouse", 1)).
		Insert("P", workload.PTuple("p53", 10)).
		Insert("S", workload.STuple(1, 10, "ACGT")))
	publish(t, alaska)
	commit(t, beijing.NewTransaction().
		Insert("O", workload.OTuple("rat", 2)))
	publish(t, beijing)
	reconcile(t, alaska)
	reconcile(t, beijing)
	// Both Σ1 peers converge to the same instance.
	if !alaska.Instance().Equal(beijing.Instance()) {
		t.Errorf("alaska=%d tuples, beijing=%d tuples",
			instSize(alaska.Instance()), instSize(beijing.Instance()))
	}
	if alaska.Instance().Table("O").Len() != 2 {
		t.Errorf("O = %v", alaska.Instance().Table("O").Rows())
	}
}

func TestDeletionPropagatesEndToEnd(t *testing.T) {
	peers, _ := fig2(t)
	alaska, dresden := peers[workload.Alaska], peers[workload.Dresden]
	commit(t, alaska.NewTransaction().
		Insert("O", workload.OTuple("mouse", 1)).
		Insert("P", workload.PTuple("p53", 10)).
		Insert("S", workload.STuple(1, 10, "ACGT")))
	publish(t, alaska)
	reconcile(t, dresden)
	if !instHas(dresden.Instance(), "OPS", workload.OPSTuple("mouse", "p53", "ACGT")) {
		t.Fatal("setup failed")
	}
	// Alaska retracts its own S tuple.
	commit(t, alaska.NewTransaction().Delete("S", workload.STuple(1, 10, "ACGT")))
	publish(t, alaska)
	reconcile(t, dresden)
	if instHas(dresden.Instance(), "OPS", workload.OPSTuple("mouse", "p53", "ACGT")) {
		t.Errorf("dresden kept deleted data: %v", dresden.Instance().Table("OPS").Rows())
	}
}

func TestReconcileReportShapes(t *testing.T) {
	peers, _ := fig2(t)
	alaska, crete := peers[workload.Alaska], peers[workload.Crete]
	// Alaska is untrusted at Crete: its candidate stays pending.
	commit(t, alaska.NewTransaction().
		Insert("O", workload.OTuple("mouse", 1)).
		Insert("P", workload.PTuple("p53", 10)).
		Insert("S", workload.STuple(1, 10, "ACGT")))
	publish(t, alaska)
	r := reconcile(t, crete)
	if len(r.Pending) != 1 {
		t.Errorf("report = %+v", r)
	}
	if crete.Status(updates.TxnID{Peer: workload.Alaska, Seq: 1}) != recon.StatusPending {
		t.Error("alaska txn should be pending at crete")
	}
	if crete.Instance().Table("OPS").Len() != 0 {
		t.Error("crete applied untrusted data")
	}
}

func TestResolveWithoutConflictErrors(t *testing.T) {
	peers, _ := fig2(t)
	alaska := peers[workload.Alaska]
	if _, err := alaska.Resolve(context.Background(), updates.TxnID{Peer: "x", Seq: 1}); err == nil {
		t.Error("resolve of unknown txn accepted")
	}
}

// A full "diamond" consistency check: data inserted at Alaska reaches
// Dresden along A→C→D; Dresden's own inserts reach Alaska along D→C→A; and
// a second reconciliation round is idempotent everywhere.
func TestDiamondConvergenceAndIdempotence(t *testing.T) {
	peers, _ := fig2(t)
	all := []*Peer{peers[workload.Alaska], peers[workload.Beijing], peers[workload.Crete], peers[workload.Dresden]}

	commit(t, peers[workload.Alaska].NewTransaction().
		Insert("O", workload.OTuple("mouse", 1)).
		Insert("P", workload.PTuple("p53", 10)).
		Insert("S", workload.STuple(1, 10, "ACGT")))
	publish(t, peers[workload.Alaska])
	commit(t, peers[workload.Dresden].NewTransaction().
		Insert("OPS", workload.OPSTuple("fly", "myc", "GGGG")))
	publish(t, peers[workload.Dresden])

	for _, p := range all {
		reconcile(t, p)
	}
	sizes := map[string]int{}
	for _, p := range all {
		sizes[p.Name()] = instSize(p.Instance())
	}
	// Second round: nothing new, no size changes.
	for _, p := range all {
		r := reconcile(t, p)
		if r.AppliedUpdates != 0 {
			t.Errorf("%s applied %d updates on idle round", p.Name(), r.AppliedUpdates)
		}
		if instSize(p.Instance()) != sizes[p.Name()] {
			t.Errorf("%s size changed on idle round", p.Name())
		}
	}
	// Crete and Dresden both have the two OPS tuples (Dresden trusts all;
	// Crete trusts Dresden for the fly tuple and... Alaska is untrusted,
	// so Crete has only Dresden's).
	if peers[workload.Dresden].Instance().Table("OPS").Len() != 2 {
		t.Errorf("dresden OPS = %v", peers[workload.Dresden].Instance().Table("OPS").Rows())
	}
	if peers[workload.Crete].Instance().Table("OPS").Len() != 1 {
		t.Errorf("crete OPS = %v", peers[workload.Crete].Instance().Table("OPS").Rows())
	}
}
