package core

// Peer recovery: a CDSS peer holds no private durable state — its instance
// is reconstructible by replaying the published archive through its trust
// policy. These tests pin that property, which is what makes the archive
// the only durability point a deployment needs.

import (
	"testing"

	"orchestra/internal/recon"
	"orchestra/internal/workload"
)

func TestPeerRecoveryFromArchive(t *testing.T) {
	peers, store := fig2(t)
	alaska, beijing, dresden := peers[workload.Alaska], peers[workload.Beijing], peers[workload.Dresden]

	// A realistic history: inserts, a cross-peer modify, a deletion.
	commit(t, alaska.NewTransaction().
		Insert("O", workload.OTuple("mouse", 1)).
		Insert("P", workload.PTuple("p53", 10)).
		Insert("S", workload.STuple(1, 10, "AAAA")))
	publish(t, alaska)
	reconcile(t, beijing)
	commit(t, beijing.NewTransaction().
		Modify("S", workload.STuple(1, 10, "AAAA"), workload.STuple(1, 10, "TTTT")))
	publish(t, beijing)
	commit(t, alaska.NewTransaction().
		Insert("O", workload.OTuple("rat", 2)))
	publish(t, alaska)
	reconcile(t, dresden)

	// Dresden's machine dies. A fresh peer with the same name and policy
	// replays the archive from epoch 0.
	sys, err := NewSystem(workload.Figure2Peers(), workload.Figure2Mappings())
	if err != nil {
		t.Fatal(err)
	}
	dresden2, err := NewPeer(workload.Dresden, sys, store, recon.TrustAll(1))
	if err != nil {
		t.Fatal(err)
	}
	reconcile(t, dresden2)
	if !dresden2.Instance().Equal(dresden.Instance()) {
		t.Fatalf("recovered instance (%d tuples) != original (%d tuples)\nrecovered: %v\noriginal: %v",
			instSize(dresden2.Instance()), instSize(dresden.Instance()),
			dresden2.Instance().Table("OPS").Rows(), dresden.Instance().Table("OPS").Rows())
	}
	if dresden2.Epoch() != dresden.Epoch() {
		t.Errorf("epochs differ: %d vs %d", dresden2.Epoch(), dresden.Epoch())
	}
}

func TestPeerRecoveryOverDurableStore(t *testing.T) {
	// Same, but across a restart of a durable archive: archive durability +
	// peer statelessness compose into full crash recovery.
	dir := t.TempDir()
	db, fs := openDurableTier(t, dir)
	sys, err := NewSystem(workload.Figure2Peers(), workload.Figure2Mappings())
	if err != nil {
		t.Fatal(err)
	}
	alaska, err := NewPeer(workload.Alaska, sys, fs, recon.TrustAll(1))
	if err != nil {
		t.Fatal(err)
	}
	commit(t, alaska.NewTransaction().
		Insert("O", workload.OTuple("mouse", 1)).
		Insert("P", workload.PTuple("p53", 10)).
		Insert("S", workload.STuple(1, 10, "ACGT")))
	publish(t, alaska)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Everything restarts.
	db2, fs2 := openDurableTier(t, dir)
	defer db2.Close()
	crete, err := NewPeer(workload.Crete, sys, fs2, &recon.Policy{
		Conditions: []recon.Condition{recon.FromPeer(workload.Alaska, 1)},
		Default:    recon.Distrusted,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := reconcile(t, crete)
	if len(r.Accepted) != 1 {
		t.Fatalf("report = %+v", r)
	}
	if !instHas(crete.Instance(), "OPS", workload.OPSTuple("mouse", "p53", "ACGT")) {
		t.Errorf("crete OPS = %v", crete.Instance().Table("OPS").Rows())
	}
}
