package core

// The durable-peer contract: a peer that checkpoints into the LSM tier and
// crashes recovers — via RecoverPeerWith — to a state indistinguishable from
// having processed the same published history live. These tests pin that
// equivalence structurally (instance rows + provenance), behaviorally
// (sequence numbers, trust statuses, the unpublished queue), and under a
// randomized workload against an in-memory oracle system.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"orchestra/internal/exchange"
	"orchestra/internal/lsm"
	"orchestra/internal/mapping"
	"orchestra/internal/p2p"
	"orchestra/internal/recon"
	"orchestra/internal/schema"
	"orchestra/internal/storage"
	"orchestra/internal/updates"
	"orchestra/internal/workload"
)

// requireEqualWithProvenance compares two instances row by row, including
// the provenance polynomials Instance.Equal deliberately ignores: a durable
// peer must recover identical annotations, not just identical tuples.
func requireEqualWithProvenance(t *testing.T, label string, sch *schema.Schema, a, b *storage.Instance) {
	t.Helper()
	if !a.Equal(b) {
		t.Fatalf("%s: instances differ: %d vs %d tuples", label, instSize(a), instSize(b))
	}
	for _, rel := range sch.Relations() {
		ra, _ := a.Rows(rel.Name)
		rb, _ := b.Rows(rel.Name)
		if len(ra) != len(rb) {
			t.Fatalf("%s: %s: %d vs %d rows", label, rel.Name, len(ra), len(rb))
		}
		for i := range ra {
			// Rows come back tuple-sorted, so same index = same tuple.
			if !ra[i].Prov.Equal(rb[i].Prov) {
				t.Fatalf("%s: %s %v: provenance %v vs %v",
					label, rel.Name, ra[i].Tuple, ra[i].Prov, rb[i].Prov)
			}
		}
	}
}

// openDurableTier opens (or reopens) the shared LSM database and the
// archive store inside it.
func openDurableTier(t *testing.T, dir string) (*lsm.DB, *p2p.DurableStore) {
	t.Helper()
	db, err := lsm.Open(dir, lsm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := p2p.NewDurableStore(db)
	if err != nil {
		t.Fatal(err)
	}
	return db, ds
}

// countKeys counts the live keys under prefix in db.
func countKeys(t *testing.T, db *lsm.DB, prefix []byte) int {
	t.Helper()
	sn := db.Snapshot()
	defer sn.Close()
	n := 0
	if err := sn.Scan(prefix, lsm.PrefixEnd(prefix), func(k, v []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	return n
}

func checkpoint(t *testing.T, p *Peer, db *lsm.DB) {
	t.Helper()
	if err := p.SaveCheckpoint(db); err != nil {
		t.Fatal(err)
	}
}

// durablePeer brings a peer up the way the SDK does on a durable system —
// through recovery, from whatever image db holds (none, for a new peer) —
// so it is attached to db: it notes the rows it dirties, archives Resolve
// decisions, and may checkpoint.
func durablePeer(t *testing.T, name string, sys *System, store p2p.Store, policy *recon.Policy, db *lsm.DB) *Peer {
	t.Helper()
	p, err := RecoverPeerWith(context.Background(), name, sys, store, policy, exchange.Config{}, db)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func recoverPeer(t *testing.T, name string, store p2p.Store, policy *recon.Policy, db *lsm.DB) *Peer {
	t.Helper()
	sys, err := NewSystem(workload.Figure2Peers(), workload.Figure2Mappings())
	if err != nil {
		t.Fatal(err)
	}
	return durablePeer(t, name, sys, store, policy, db)
}

// TestDurablePeerKillRestartEquivalence: a full history — foreign publishes
// before and after the checkpoint, own publishes straddling it, and an own
// transaction that was unpublished at checkpoint time but published before
// the crash. The recovered peer must equal the live one in instance state,
// epoch, trust statuses, and next sequence number.
func TestDurablePeerKillRestartEquivalence(t *testing.T) {
	dir := t.TempDir()
	db, ds := openDurableTier(t, dir)
	sys, err := NewSystem(workload.Figure2Peers(), workload.Figure2Mappings())
	if err != nil {
		t.Fatal(err)
	}
	alaska := durablePeer(t, workload.Alaska, sys, ds, recon.TrustAll(1), db)
	dresden := durablePeer(t, workload.Dresden, sys, ds, recon.TrustAll(1), db)

	// Pre-checkpoint history: a foreign publish, a reconcile, an own publish.
	commit(t, alaska.NewTransaction().
		Insert("O", workload.OTuple("mouse", 1)).
		Insert("P", workload.PTuple("p53", 10)).
		Insert("S", workload.STuple(1, 10, "AAAA")))
	publish(t, alaska)
	reconcile(t, dresden)
	ownA := commit(t, dresden.NewTransaction().Insert("OPS", workload.OPSTuple("rat", "brca1", "TTTT")))
	publish(t, dresden)
	reconcile(t, dresden)
	// Committed but NOT yet published when the checkpoint is cut.
	ownB := commit(t, dresden.NewTransaction().Insert("OPS", workload.OPSTuple("fly", "dscam", "GGGG")))
	checkpoint(t, dresden, db)

	// Post-checkpoint: more foreign history, then ownB publishes along with
	// a fresh post-checkpoint commit.
	commit(t, alaska.NewTransaction().
		Modify("S", workload.STuple(1, 10, "AAAA"), workload.STuple(1, 10, "CCCC")))
	publish(t, alaska)
	reconcile(t, dresden)
	ownC := commit(t, dresden.NewTransaction().Insert("OPS", workload.OPSTuple("worm", "lin28", "ACAC")))
	publish(t, dresden)
	reconcile(t, dresden)

	// Kill: everything in memory is gone; only the LSM directory survives.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, ds2 := openDurableTier(t, dir)
	defer db2.Close()
	dresden2 := recoverPeer(t, workload.Dresden, ds2, recon.TrustAll(1), db2)

	requireEqualWithProvenance(t, "kill-restart", sys.Schema(workload.Dresden),
		dresden.Instance(), dresden2.Instance())
	if dresden2.Epoch() != dresden.Epoch() {
		t.Errorf("epoch: recovered %d, live %d", dresden2.Epoch(), dresden.Epoch())
	}
	for _, id := range []updates.TxnID{ownA.ID, ownB.ID, ownC.ID} {
		if got, want := dresden2.Status(id), dresden.Status(id); got != want {
			t.Errorf("status of %v: recovered %v, live %v", id, got, want)
		}
	}
	// The sequence counter resumes exactly where the live peer's stood.
	next := commit(t, dresden2.NewTransaction().Insert("OPS", workload.OPSTuple("yeast", "gal4", "AGAG")))
	if next.ID.Seq != ownC.ID.Seq+1 {
		t.Errorf("next seq = %d, want %d", next.ID.Seq, ownC.ID.Seq+1)
	}
	// And the recovered peer keeps participating: publish, then a second
	// recovery of another peer sees the new write.
	publish(t, dresden2)
	alaska2 := recoverPeer(t, workload.Alaska, ds2, recon.TrustAll(1), db2)
	reconcile(t, alaska2)
	if !instHas(alaska2.Instance(), "O", workload.OTuple("yeast", 0)) &&
		instSize(alaska2.Instance()) == 0 {
		t.Error("recovered alaska saw nothing")
	}
}

// legacyRowPrefix is where layouts before OEB8 kept the peer's instance,
// one row per tuple beside the blob.
func legacyRowPrefix(peer string) []byte { return append(ckBase(peer), 'r') }

// TestRecoverDropsEngineBlobOfOldVersion: a directory in the layout that
// kept the instance as rows beside the blob — its blob's magic ends in
// another version digit, or it holds instance rows and no blob at all —
// recovers cleanly — the rows are dropped with the blob and the whole
// archive replayed — to the state of the never-killed twin. The next
// checkpoint writes an image in the current layout and deletes the rows.
func TestRecoverDropsEngineBlobOfOldVersion(t *testing.T) {
	t.Run("old-version-blob", func(t *testing.T) {
		testRecoverDropsImage(t, func(db *lsm.DB, blob []byte) error {
			return db.Put(ekKey(workload.Dresden), append([]byte("OEB7"), blob[4:]...), true)
		})
	})
	t.Run("rows-without-blob", func(t *testing.T) {
		testRecoverDropsImage(t, func(db *lsm.DB, blob []byte) error {
			b := lsm.NewBatch()
			b.Delete(ekKey(workload.Dresden))
			return db.Apply(b, true)
		})
	})
}

func testRecoverDropsImage(t *testing.T, spoil func(db *lsm.DB, blob []byte) error) {
	dir := t.TempDir()
	db, ds := openDurableTier(t, dir)
	sys, err := NewSystem(workload.Figure2Peers(), workload.Figure2Mappings())
	if err != nil {
		t.Fatal(err)
	}
	alaska := durablePeer(t, workload.Alaska, sys, ds, recon.TrustAll(1), db)
	dresden := durablePeer(t, workload.Dresden, sys, ds, recon.TrustAll(1), db)
	commit(t, alaska.NewTransaction().
		Insert("O", workload.OTuple("mouse", 1)).
		Insert("P", workload.PTuple("p53", 10)).
		Insert("S", workload.STuple(1, 10, "AAAA")))
	publish(t, alaska)
	reconcile(t, dresden)
	own := commit(t, dresden.NewTransaction().Insert("OPS", workload.OPSTuple("rat", "brca1", "TTTT")))
	publish(t, dresden)
	reconcile(t, dresden)
	checkpoint(t, dresden, db)
	commit(t, alaska.NewTransaction().
		Modify("S", workload.STuple(1, 10, "AAAA"), workload.STuple(1, 10, "CCCC")))
	publish(t, alaska)
	reconcile(t, dresden)

	sn := db.Snapshot()
	blob, ok, err := sn.Get(ekKey(workload.Dresden))
	sn.Close()
	if err != nil || !ok || string(blob[:4]) != engineBlobMagic {
		t.Fatalf("checkpoint left no current-version engine blob (ok=%v, err=%v)", ok, err)
	}
	if err := spoil(db, blob); err != nil {
		t.Fatal(err)
	}
	// An instance row of the layout that kept the instance beside the blob,
	// which no history produced: loaded, it would stay. Its value is the
	// row layout's annotation 1: one monomial, coefficient 1, no variables.
	stale := append(lsm.AppendString(legacyRowPrefix(workload.Dresden), "OPS"), "stale row"...)
	if err := db.Put(stale, []byte{1, 1, 0}, true); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, ds2 := openDurableTier(t, dir)
	defer db2.Close()
	dresden2 := recoverPeer(t, workload.Dresden, ds2, recon.TrustAll(1), db2)
	if got, want := dresden2.recReplayTxns, int64(archived(t, ds2)); got != want {
		t.Errorf("recovery replayed %d transactions, want the whole archive (%d)", got, want)
	}
	requireEqualWithProvenance(t, "dropped image", sys.Schema(workload.Dresden),
		dresden.Instance(), dresden2.Instance())
	if dresden2.Epoch() != dresden.Epoch() {
		t.Errorf("epoch: recovered %d, live %d", dresden2.Epoch(), dresden.Epoch())
	}
	if got, want := dresden2.Status(own.ID), dresden.Status(own.ID); got != want {
		t.Errorf("status of %v: recovered %v, live %v", own.ID, got, want)
	}
	checkpoint(t, dresden2, db2)
	if _, watermark, ok, err := EngineSnapshotStats(db2, workload.Dresden); err != nil || !ok || watermark != dresden2.Epoch() {
		t.Errorf("after the next checkpoint: blob ok=%v watermark=%d err=%v, want a current one at epoch %d",
			ok, watermark, err, dresden2.Epoch())
	}
	if _, ok, err := db2.Get(stale); err != nil || ok {
		t.Errorf("the next image kept a dropped row (ok=%v, err=%v)", ok, err)
	}
	if n := countKeys(t, db2, legacyRowPrefix(workload.Dresden)); n != 0 {
		t.Errorf("the next image left %d rows of the earlier layout", n)
	}
	requireImageEqualsInstance(t, "the next image", db2, dresden2)
}

// TestRecoverFloatsCompareCannotOrder: tuples holding a NaN, and a pair that
// differs only in 0.0 vs -0.0, are distinct facts (distinct keys) that
// Value.Compare could not put in a strict order before it followed
// Value.Key. A checkpoint that holds them must recover from its engine
// blob, to the never-killed twin's rows.
func TestRecoverFloatsCompareCannotOrder(t *testing.T) {
	sigma := func() *schema.Schema {
		s := schema.NewSchema("Σf")
		s.MustAddRelation(schema.MustRelation("R",
			[]schema.Attribute{{Name: "k", Type: schema.KindString}, {Name: "x", Type: schema.KindFloat}},
			"k", "x"))
		return s
	}
	var ms []*mapping.Mapping
	ms = append(ms, mapping.Identity("M_ab", "a", "b", sigma())...)
	ms = append(ms, mapping.Identity("M_ba", "b", "a", sigma())...)
	newSys := func() *System {
		sys, err := NewSystem(map[string]*schema.Schema{"a": sigma(), "b": sigma()}, ms)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	row := func(k string, x float64) schema.Tuple {
		return schema.NewTuple(schema.String(k), schema.Float(x))
	}

	dir := t.TempDir()
	db, ds := openDurableTier(t, dir)
	sys := newSys()
	a := durablePeer(t, "a", sys, ds, recon.TrustAll(1), db)
	b := durablePeer(t, "b", sys, ds, recon.TrustAll(1), db)
	commit(t, a.NewTransaction().
		Insert("R", row("z", 0)).
		Insert("R", row("z", math.Copysign(0, -1))).
		Insert("R", row("n", math.NaN())).
		Insert("R", row("n", 1.5)).
		Insert("R", row("n", -2)))
	publish(t, a)
	reconcile(t, b)
	checkpoint(t, b, db)
	commit(t, a.NewTransaction().Insert("R", row("m", math.NaN())))
	publish(t, a)
	reconcile(t, b)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, ds2 := openDurableTier(t, dir)
	defer db2.Close()
	b2 := durablePeer(t, "b", newSys(), ds2, recon.TrustAll(1), db2)
	if got, all := b2.recReplayTxns, int64(archived(t, ds2)); got >= all {
		t.Errorf("recovery replayed %d of %d transactions: the engine blob was not used", got, all)
	}
	want, _ := b.Instance().Rows("R")
	got, _ := b2.Instance().Rows("R")
	if len(want) != 6 || len(got) != len(want) {
		t.Fatalf("recovered %d rows, live peer holds %d (want 6)", len(got), len(want))
	}
	byKey := map[string]storage.Row{}
	for _, r := range got {
		byKey[r.Tuple.Key()] = r
	}
	for _, w := range want {
		g, ok := byKey[w.Tuple.Key()]
		if !ok {
			t.Fatalf("recovered peer lost %v", w.Tuple)
		}
		if !g.Prov.Equal(w.Prov) {
			t.Fatalf("%v: provenance %v, live %v", w.Tuple, g.Prov, w.Prov)
		}
	}
}

// TestRecoverRestoresUnpublishedQueue: a transaction committed before the
// checkpoint but never published survives the crash in the checkpoint and
// is publishable after recovery.
func TestRecoverRestoresUnpublishedQueue(t *testing.T) {
	dir := t.TempDir()
	db, ds := openDurableTier(t, dir)
	sys, err := NewSystem(workload.Figure2Peers(), workload.Figure2Mappings())
	if err != nil {
		t.Fatal(err)
	}
	dresden := durablePeer(t, workload.Dresden, sys, ds, recon.TrustAll(1), db)
	published := commit(t, dresden.NewTransaction().Insert("OPS", workload.OPSTuple("mouse", "p53", "AAAA")))
	publish(t, dresden)
	reconcile(t, dresden)
	queued := commit(t, dresden.NewTransaction().Insert("OPS", workload.OPSTuple("rat", "brca1", "TTTT")))
	checkpoint(t, dresden, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, ds2 := openDurableTier(t, dir)
	defer db2.Close()
	dresden2 := recoverPeer(t, workload.Dresden, ds2, recon.TrustAll(1), db2)
	// The queued write's effects are in the recovered instance...
	if !instHas(dresden2.Instance(), "OPS", workload.OPSTuple("rat", "brca1", "TTTT")) {
		t.Fatal("unpublished write lost from instance")
	}
	// ...its trust decision survives...
	if dresden2.Status(queued.ID) != dresden2.Status(published.ID) {
		t.Errorf("queued txn status %v != published txn status %v",
			dresden2.Status(queued.ID), dresden2.Status(published.ID))
	}
	// ...and the queue itself is intact: the next Publish archives it.
	epoch, n, err := dresden2.PublishAll(context.Background())
	if err != nil || n != 1 {
		t.Fatalf("publish after recovery: epoch %d, %d txns, %v", epoch, n, err)
	}
	txns, _, err := ds2.Since(0)
	if err != nil {
		t.Fatal(err)
	}
	last := txns[len(txns)-1]
	if last.ID != queued.ID {
		t.Errorf("archived %v, want %v", last.ID, queued.ID)
	}
}

// TestRecoverWithoutCheckpoint: no checkpoint was ever taken; recovery
// degenerates to a full replay and still equals the live peer.
func TestRecoverWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, ds := openDurableTier(t, dir)
	defer db.Close()
	sys, err := NewSystem(workload.Figure2Peers(), workload.Figure2Mappings())
	if err != nil {
		t.Fatal(err)
	}
	alaska := durablePeer(t, workload.Alaska, sys, ds, recon.TrustAll(1), db)
	beijing := durablePeer(t, workload.Beijing, sys, ds, recon.TrustAll(1), db)
	commit(t, alaska.NewTransaction().
		Insert("O", workload.OTuple("mouse", 1)).
		Insert("P", workload.PTuple("p53", 10)).
		Insert("S", workload.STuple(1, 10, "ACGT")))
	publish(t, alaska)
	reconcile(t, beijing)
	commit(t, beijing.NewTransaction().
		Modify("S", workload.STuple(1, 10, "ACGT"), workload.STuple(1, 10, "TGCA")))
	publish(t, beijing)
	reconcile(t, alaska)

	alaska2 := recoverPeer(t, workload.Alaska, ds, recon.TrustAll(1), db)
	if !alaska2.Instance().Equal(alaska.Instance()) {
		t.Fatalf("recovered (%d tuples) != live (%d tuples)",
			instSize(alaska2.Instance()), instSize(alaska.Instance()))
	}
	if alaska2.Epoch() != alaska.Epoch() {
		t.Errorf("epoch: %d vs %d", alaska2.Epoch(), alaska.Epoch())
	}
}

// TestRecoverAfterUncleanCrash: the database is never closed — the crash
// leaves only what the WAL fsyncs made durable. Publish and SaveCheckpoint
// both sync, so a copy of the directory taken mid-flight must recover the
// full acknowledged state through WAL replay.
func TestRecoverAfterUncleanCrash(t *testing.T) {
	src := t.TempDir()
	db, ds := openDurableTier(t, src)
	sys, err := NewSystem(workload.Figure2Peers(), workload.Figure2Mappings())
	if err != nil {
		t.Fatal(err)
	}
	dresden := durablePeer(t, workload.Dresden, sys, ds, recon.TrustAll(1), db)
	commit(t, dresden.NewTransaction().Insert("OPS", workload.OPSTuple("mouse", "p53", "AAAA")))
	publish(t, dresden)
	reconcile(t, dresden)
	checkpoint(t, dresden, db)
	commit(t, dresden.NewTransaction().Insert("OPS", workload.OPSTuple("rat", "brca1", "TTTT")))
	publish(t, dresden)
	reconcile(t, dresden)
	// Simulated power cut: copy the directory while the DB is still open
	// (db deliberately leaked — its state is the synced WAL).
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	db2, ds2 := openDurableTier(t, dst)
	defer db2.Close()
	dresden2 := recoverPeer(t, workload.Dresden, ds2, recon.TrustAll(1), db2)
	if !dresden2.Instance().Equal(dresden.Instance()) {
		t.Fatalf("unclean-crash recovery: %d tuples, live has %d",
			instSize(dresden2.Instance()), instSize(dresden.Instance()))
	}
	if dresden2.Epoch() != dresden.Epoch() {
		t.Errorf("epoch: %d vs %d", dresden2.Epoch(), dresden.Epoch())
	}
}

// TestQuickDurableMatchesMemoryOracle: the same randomized insert-only
// workload drives two systems — one over a MemoryStore, one over the LSM
// tier with periodic checkpoints and a kill-and-restart of a random durable
// peer between rounds. Every surviving pair of same-named peers must hold
// identical instances at the end.
func TestQuickDurableMatchesMemoryOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 3; trial++ {
		topo := workload.Chain(3)
		sysM, err := NewSystem(topo.Peers, topo.Mappings)
		if err != nil {
			t.Fatal(err)
		}
		sysD, err := NewSystem(topo.Peers, topo.Mappings)
		if err != nil {
			t.Fatal(err)
		}
		memStore := p2p.NewMemoryStore()
		dir := t.TempDir()
		db, durStore := openDurableTier(t, dir)

		memPeers := map[string]*Peer{}
		durPeers := map[string]*Peer{}
		for _, name := range topo.Names {
			mp, err := NewPeer(name, sysM, memStore, recon.TrustAll(1))
			if err != nil {
				t.Fatal(err)
			}
			memPeers[name] = mp
			dp := durablePeer(t, name, sysD, durStore, recon.TrustAll(1), db)
			durPeers[name] = dp
		}

		key := int64(trial * 10000)
		for round := 0; round < 4; round++ {
			for _, name := range topo.Names {
				n := rng.Intn(3) + 1
				base := key
				for _, p := range []*Peer{memPeers[name], durPeers[name]} {
					k := base
					tx := p.NewTransaction()
					for j := 0; j < n; j++ {
						tx.Insert("S", workload.STuple(k, k, workload.Sequence(k, k)))
						k++
					}
					if _, err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
					if _, err := p.Publish(context.Background()); err != nil {
						t.Fatal(err)
					}
					key = k
				}
			}
			for _, i := range rng.Perm(len(topo.Names)) {
				name := topo.Names[i]
				reconcile(t, memPeers[name])
				reconcile(t, durPeers[name])
			}
			// Crash-and-recover one durable peer between rounds.
			victim := topo.Names[rng.Intn(len(topo.Names))]
			checkpoint(t, durPeers[victim], db)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db, durStore = openDurableTier(t, dir)
			// Every peer re-attaches to the reopened store through recovery:
			// the victim from its checkpoint, the others from the archive
			// alone (no checkpoint — full replay, which also restores their
			// sequence counters from their own published history).
			for _, name := range topo.Names {
				p, err := RecoverPeerWith(context.Background(), name, sysD, durStore, recon.TrustAll(1), exchange.Config{}, db)
				if err != nil {
					t.Fatal(err)
				}
				durPeers[name] = p
			}
		}
		for _, p := range memPeers {
			reconcile(t, p)
		}
		for _, p := range durPeers {
			reconcile(t, p)
		}
		for _, name := range topo.Names {
			requireEqualWithProvenance(t, fmt.Sprintf("trial %d: %s", trial, name),
				sysM.Schema(name), memPeers[name].Instance(), durPeers[name].Instance())
		}
		db.Close()
	}
}
