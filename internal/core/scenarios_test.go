package core

// The five demonstration scenarios of Section 4 of the paper, run
// end-to-end over the Figure 2 CDSS: four peers (Alaska, Beijing, Crete,
// Dresden), Σ1/Σ2 schemas, identity + join + split mappings, and the trust
// relationships the paper states: "Alaska, Beijing and Dresden each trust
// all other participants equally, but Crete trusts only Beijing and
// Dresden (but prefers Beijing to Dresden in the event of a conflict)."

import (
	"context"
	"testing"

	"orchestra/internal/p2p"
	"orchestra/internal/recon"
	"orchestra/internal/schema"
	"orchestra/internal/storage"
	"orchestra/internal/updates"
	"orchestra/internal/workload"
)

// fig2 builds the demo CDSS on a fresh in-memory store.
func fig2(t testing.TB) (map[string]*Peer, p2p.Store) {
	t.Helper()
	sys, err := NewSystem(workload.Figure2Peers(), workload.Figure2Mappings())
	if err != nil {
		t.Fatal(err)
	}
	store := p2p.NewMemoryStore()
	peers := map[string]*Peer{}
	policies := map[string]*recon.Policy{
		workload.Alaska:  recon.TrustAll(1),
		workload.Beijing: recon.TrustAll(1),
		workload.Dresden: recon.TrustAll(1),
		workload.Crete: {Conditions: []recon.Condition{
			recon.FromPeer(workload.Beijing, 2),
			recon.FromPeer(workload.Dresden, 1),
		}, Default: recon.Distrusted},
	}
	for name, policy := range policies {
		p, err := NewPeer(name, sys, store, policy)
		if err != nil {
			t.Fatal(err)
		}
		peers[name] = p
	}
	return peers, store
}

// instSize counts the instance's rows across its relations.
func instSize(in *storage.Instance) int {
	n := 0
	for _, rel := range in.Schema().Relations() {
		rows, _ := in.Rows(rel.Name)
		n += len(rows)
	}
	return n
}

// instHas reports whether the named relation holds the exact tuple. Call
// it only where nothing writes the instance concurrently.
func instHas(in *storage.Instance, rel string, tu schema.Tuple) bool {
	_, ok := in.Table(rel).Get(tu)
	return ok
}

// archived counts the transactions the store holds.
func archived(t testing.TB, s p2p.Store) int {
	t.Helper()
	txns, _, err := s.Since(0)
	if err != nil {
		t.Fatal(err)
	}
	return len(txns)
}

func commit(t testing.TB, tx *Txn) *updates.Transaction {
	t.Helper()
	txn, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	return txn
}

func publish(t testing.TB, p *Peer) {
	t.Helper()
	if _, err := p.Publish(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func reconcile(t testing.TB, p *Peer) *ReconcileReport {
	t.Helper()
	r, err := p.Reconcile(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// Scenario 1: "Updates made by Alaska get translated into Dresden's schema
// and applied, and vice versa."
func TestScenario1BidirectionalTranslation(t *testing.T) {
	peers, _ := fig2(t)
	alaska, dresden := peers[workload.Alaska], peers[workload.Dresden]

	commit(t, alaska.NewTransaction().
		Insert("O", workload.OTuple("mouse", 1)).
		Insert("P", workload.PTuple("p53", 10)).
		Insert("S", workload.STuple(1, 10, "ACGT")))
	publish(t, alaska)

	r := reconcile(t, dresden)
	if r.Fetched != 1 || len(r.Accepted) != 1 {
		t.Fatalf("dresden report = %+v", r)
	}
	if !instHas(dresden.Instance(), "OPS", workload.OPSTuple("mouse", "p53", "ACGT")) {
		t.Errorf("dresden OPS = %v", dresden.Instance().Table("OPS").Rows())
	}

	// And vice versa: Dresden's insert reaches Alaska split into O, P, S
	// with invented ids.
	commit(t, dresden.NewTransaction().Insert("OPS", workload.OPSTuple("fly", "myc", "GGGG")))
	publish(t, dresden)
	reconcile(t, alaska)

	oRows := alaska.Instance().Table("O").Rows()
	foundFly := false
	for _, row := range oRows {
		if row.Tuple[0].Str() == "fly" && row.Tuple[1].IsLabeledNull() {
			foundFly = true
		}
	}
	if !foundFly {
		t.Errorf("alaska O = %v", oRows)
	}
	sRows := alaska.Instance().Table("S").Rows()
	foundSeq := false
	for _, row := range sRows {
		if row.Tuple[2].Str() == "GGGG" {
			foundSeq = true
		}
	}
	if !foundSeq {
		t.Errorf("alaska S = %v", sRows)
	}
}

// Scenario 2: "Beijing and Dresden publish conflicting updates, and Crete
// therefore rejects Dresden's. Dresden then publishes more updates which
// depend on its earlier ones, which Crete must also reject."
func TestScenario2TrustConflictAndCascade(t *testing.T) {
	peers, _ := fig2(t)
	beijing, crete, dresden := peers[workload.Beijing], peers[workload.Crete], peers[workload.Dresden]

	bTxn := commit(t, beijing.NewTransaction().
		Insert("O", workload.OTuple("mouse", 1)).
		Insert("P", workload.PTuple("p53", 10)).
		Insert("S", workload.STuple(1, 10, "AAAA")))
	publish(t, beijing)

	dTxn := commit(t, dresden.NewTransaction().
		Insert("OPS", workload.OPSTuple("mouse", "p53", "CCCC")))
	publish(t, dresden)

	r := reconcile(t, crete)
	if crete.Status(bTxn.ID) != recon.StatusAccepted {
		t.Errorf("beijing at crete: %s", crete.Status(bTxn.ID))
	}
	if crete.Status(dTxn.ID) != recon.StatusRejected {
		t.Errorf("dresden at crete: %s (report %+v)", crete.Status(dTxn.ID), r)
	}
	if !instHas(crete.Instance(), "OPS", workload.OPSTuple("mouse", "p53", "AAAA")) {
		t.Errorf("crete OPS = %v", crete.Instance().Table("OPS").Rows())
	}
	if instHas(crete.Instance(), "OPS", workload.OPSTuple("mouse", "p53", "CCCC")) {
		t.Error("crete applied dresden's rejected tuple")
	}

	// Dresden publishes a dependent follow-up; Crete must reject it too.
	d2 := commit(t, dresden.NewTransaction().
		Modify("OPS", workload.OPSTuple("mouse", "p53", "CCCC"), workload.OPSTuple("mouse", "p53", "TTTT")))
	publish(t, dresden)
	reconcile(t, crete)
	if crete.Status(d2.ID) != recon.StatusRejected {
		t.Errorf("dresden follow-up at crete: %s", crete.Status(d2.ID))
	}
	if instHas(crete.Instance(), "OPS", workload.OPSTuple("mouse", "p53", "TTTT")) {
		t.Error("crete applied dependent of rejected txn")
	}
	// Dependency was tracked at Dresden.
	if len(d2.Deps) == 0 || d2.Deps[0] != dTxn.ID {
		t.Errorf("d2 deps = %v", d2.Deps)
	}
}

// Scenario 3: "Alaska publishes an insertion of several data points in the
// same transaction. Beijing publishes a modification of one of them. Crete
// then reconciles, and ends up accepting both the transaction from Beijing
// and the antecedent from Alaska, even though Crete does not trust Alaska."
func TestScenario3UntrustedAntecedentPulledIn(t *testing.T) {
	peers, _ := fig2(t)
	alaska, beijing, crete := peers[workload.Alaska], peers[workload.Beijing], peers[workload.Crete]

	aTxn := commit(t, alaska.NewTransaction().
		Insert("O", workload.OTuple("rat", 2)).
		Insert("P", workload.PTuple("ins", 20)).
		Insert("S", workload.STuple(2, 20, "AAAA")))
	publish(t, alaska)

	// Beijing receives Alaska's data, then modifies the sequence.
	reconcile(t, beijing)
	if !instHas(beijing.Instance(), "S", workload.STuple(2, 20, "AAAA")) {
		t.Fatalf("beijing S = %v", beijing.Instance().Table("S").Rows())
	}
	bTxn := commit(t, beijing.NewTransaction().
		Modify("S", workload.STuple(2, 20, "AAAA"), workload.STuple(2, 20, "TTTT")))
	publish(t, beijing)
	if len(bTxn.Deps) != 1 || bTxn.Deps[0] != aTxn.ID {
		t.Fatalf("beijing deps = %v", bTxn.Deps)
	}

	r := reconcile(t, crete)
	if crete.Status(aTxn.ID) != recon.StatusAccepted {
		t.Errorf("alaska antecedent at crete: %s (report %+v)", crete.Status(aTxn.ID), r)
	}
	if crete.Status(bTxn.ID) != recon.StatusAccepted {
		t.Errorf("beijing at crete: %s", crete.Status(bTxn.ID))
	}
	// The final state reflects Beijing's modification of Alaska's data.
	if !instHas(crete.Instance(), "OPS", workload.OPSTuple("rat", "ins", "TTTT")) {
		t.Errorf("crete OPS = %v", crete.Instance().Table("OPS").Rows())
	}
	if instHas(crete.Instance(), "OPS", workload.OPSTuple("rat", "ins", "AAAA")) {
		t.Error("crete kept the superseded version")
	}
}

// Scenario 4: "Beijing and Alaska publish conflicting updates. Dresden
// reconciles and defers both of them... Crete reconciles and publishes a
// modification of Beijing's update. Dresden reconciles again and defers
// Crete's update. Dresden then resolves the conflict [in favor of Beijing],
// and accepts Crete's transaction automatically."
func TestScenario4DeferralAndResolution(t *testing.T) {
	peers, _ := fig2(t)
	alaska, beijing, crete, dresden :=
		peers[workload.Alaska], peers[workload.Beijing], peers[workload.Crete], peers[workload.Dresden]

	bTxn := commit(t, beijing.NewTransaction().
		Insert("O", workload.OTuple("fly", 3)).
		Insert("P", workload.PTuple("tnf", 30)).
		Insert("S", workload.STuple(3, 30, "XXXX")))
	publish(t, beijing)
	aTxn := commit(t, alaska.NewTransaction().
		Insert("O", workload.OTuple("fly", 3)).
		Insert("P", workload.PTuple("tnf", 30)).
		Insert("S", workload.STuple(3, 30, "YYYY")))
	publish(t, alaska)

	r := reconcile(t, dresden)
	if dresden.Status(bTxn.ID) != recon.StatusDeferred || dresden.Status(aTxn.ID) != recon.StatusDeferred {
		t.Fatalf("dresden: beijing=%s alaska=%s (report %+v)",
			dresden.Status(bTxn.ID), dresden.Status(aTxn.ID), r)
	}
	if dresden.Instance().Table("OPS").Len() != 0 {
		t.Errorf("dresden applied deferred data: %v", dresden.Instance().Table("OPS").Rows())
	}

	// Crete accepts Beijing's (higher priority) and modifies it.
	reconcile(t, crete)
	if crete.Status(bTxn.ID) != recon.StatusAccepted {
		t.Fatalf("crete: beijing = %s", crete.Status(bTxn.ID))
	}
	cTxn := commit(t, crete.NewTransaction().
		Modify("OPS", workload.OPSTuple("fly", "tnf", "XXXX"), workload.OPSTuple("fly", "tnf", "ZZZZ")))
	publish(t, crete)
	if len(cTxn.Deps) == 0 {
		t.Fatalf("crete txn recorded no dependency on beijing")
	}

	// Dresden defers Crete's dependent update.
	reconcile(t, dresden)
	if dresden.Status(cTxn.ID) != recon.StatusDeferred {
		t.Fatalf("dresden: crete = %s", dresden.Status(cTxn.ID))
	}

	// The administrator resolves in favor of Beijing: Alaska's conflicting
	// transaction is rejected and Crete's dependent is accepted
	// automatically.
	rr, err := dresden.Resolve(context.Background(), bTxn.ID)
	if err != nil {
		t.Fatal(err)
	}
	if dresden.Status(bTxn.ID) != recon.StatusAccepted {
		t.Errorf("after resolve: beijing = %s", dresden.Status(bTxn.ID))
	}
	if dresden.Status(aTxn.ID) != recon.StatusRejected {
		t.Errorf("after resolve: alaska = %s", dresden.Status(aTxn.ID))
	}
	if dresden.Status(cTxn.ID) != recon.StatusAccepted {
		t.Errorf("after resolve: crete = %s (report %+v)", dresden.Status(cTxn.ID), rr)
	}
	// Dresden's final state carries Crete's modification of Beijing's data.
	if !instHas(dresden.Instance(), "OPS", workload.OPSTuple("fly", "tnf", "ZZZZ")) {
		t.Errorf("dresden OPS = %v", dresden.Instance().Table("OPS").Rows())
	}
	if instHas(dresden.Instance(), "OPS", workload.OPSTuple("fly", "tnf", "YYYY")) {
		t.Error("dresden applied the rejected side")
	}
}

// Scenario 5: "Beijing publishes a number of updates and then goes offline.
// Alaska can reconcile and still retrieve Beijing's updates from the CDSS."
func TestScenario5OfflinePublisher(t *testing.T) {
	// Run the store over real TCP replicas so "offline" is meaningful.
	srv1, err := p2p.NewServer(p2p.NewMemoryStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := p2p.NewServer(p2p.NewMemoryStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	sys, err := NewSystem(workload.Figure2Peers(), workload.Figure2Mappings())
	if err != nil {
		t.Fatal(err)
	}
	beijingStore := p2p.NewReplicatedStore(p2p.NewClient(srv1.Addr()), p2p.NewClient(srv2.Addr()))
	alaskaStore := p2p.NewReplicatedStore(p2p.NewClient(srv1.Addr()), p2p.NewClient(srv2.Addr()))

	beijing, err := NewPeer(workload.Beijing, sys, beijingStore, recon.TrustAll(1))
	if err != nil {
		t.Fatal(err)
	}
	alaska, err := NewPeer(workload.Alaska, sys, alaskaStore, recon.TrustAll(1))
	if err != nil {
		t.Fatal(err)
	}

	commit(t, beijing.NewTransaction().
		Insert("O", workload.OTuple("worm", 4)).
		Insert("P", workload.PTuple("dmd", 40)).
		Insert("S", workload.STuple(4, 40, "CAGT")))
	publish(t, beijing)

	// Beijing goes offline — and so does one store replica.
	srv1.Close()

	r := reconcile(t, alaska)
	if r.Fetched != 1 || len(r.Accepted) != 1 {
		t.Fatalf("alaska report = %+v", r)
	}
	if !instHas(alaska.Instance(), "S", workload.STuple(4, 40, "CAGT")) {
		t.Errorf("alaska S = %v", alaska.Instance().Table("S").Rows())
	}
}
