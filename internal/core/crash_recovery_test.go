package core

// Crash tests for the engine-snapshot and resolve-decision keyspaces: a torn
// checkpoint batch must fall back to the previous snapshot plus a longer
// replay (never a corrupt engine), and an archived Resolve decision must
// survive a kill-and-restart whether or not a checkpoint followed it.

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"orchestra/internal/lsm"
	"orchestra/internal/recon"
	"orchestra/internal/workload"
)

func copyDirFiles(t *testing.T, src, dst string) {
	t.Helper()
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
}

// singleWAL returns the path of the only WAL segment in dir.
func singleWAL(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want one wal segment, got %v (%v)", matches, err)
	}
	return matches[0]
}

// TestTornEngineCheckpointRecoveryFallsBack: the engine-snapshot blob rides
// in the checkpoint's atomic batch, so a crash that tears that batch's WAL
// frame must drop the whole checkpoint — recovery falls back to the previous
// snapshot and replays a longer suffix, and is indistinguishable from the
// live peer at every randomized cut point.
func TestTornEngineCheckpointRecoveryFallsBack(t *testing.T) {
	src := t.TempDir()
	db, ds := openDurableTier(t, src)
	sys, err := NewSystem(workload.Figure2Peers(), workload.Figure2Mappings())
	if err != nil {
		t.Fatal(err)
	}
	alaska := durablePeer(t, workload.Alaska, sys, ds, recon.TrustAll(1), db)
	dresden := durablePeer(t, workload.Dresden, sys, ds, recon.TrustAll(1), db)

	// History up to checkpoint #1.
	commit(t, alaska.NewTransaction().
		Insert("O", workload.OTuple("mouse", 1)).
		Insert("P", workload.PTuple("p53", 10)).
		Insert("S", workload.STuple(1, 10, "AAAA")))
	publish(t, alaska)
	reconcile(t, dresden)
	checkpoint(t, dresden, db)
	epochAtCk1 := dresden.Epoch()

	// More history, then checkpoint #2 — the batch the cuts will tear.
	commit(t, alaska.NewTransaction().
		Modify("S", workload.STuple(1, 10, "AAAA"), workload.STuple(1, 10, "CCCC")))
	publish(t, alaska)
	reconcile(t, dresden)
	own := commit(t, dresden.NewTransaction().Insert("OPS", workload.OPSTuple("rat", "brca1", "TTTT")))
	publish(t, dresden)
	reconcile(t, dresden)

	walPath := singleWAL(t, src)
	pre, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	checkpoint(t, dresden, db)
	post, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if post.Size() <= pre.Size() {
		t.Fatalf("checkpoint wrote nothing: wal %d -> %d bytes", pre.Size(), post.Size())
	}

	// Simulated crash: the DB is abandoned without Close; the WAL is the only
	// durable state. Cut points cover both frame boundaries of checkpoint
	// #2's batch plus randomized offsets inside it.
	rng := rand.New(rand.NewSource(7))
	cuts := []int64{pre.Size(), pre.Size() + 1, post.Size() - 1, post.Size()}
	for len(cuts) < 12 {
		cuts = append(cuts, pre.Size()+rng.Int63n(post.Size()-pre.Size()))
	}
	for _, cut := range cuts {
		dst := t.TempDir()
		copyDirFiles(t, src, dst)
		if err := os.Truncate(filepath.Join(dst, filepath.Base(walPath)), cut); err != nil {
			t.Fatal(err)
		}
		db2, ds2 := openDurableTier(t, dst)
		d2 := recoverPeer(t, workload.Dresden, ds2, recon.TrustAll(1), db2)

		// Whatever survived, the recovered peer equals the live one: every
		// publish preceded checkpoint #2, so the archive is intact and the
		// torn checkpoint costs only replay length, never state.
		if !d2.Instance().Equal(dresden.Instance()) {
			t.Fatalf("cut %d: recovered instance (%d tuples) != live (%d tuples)",
				cut, instSize(d2.Instance()), instSize(dresden.Instance()))
		}
		if d2.Epoch() != dresden.Epoch() {
			t.Errorf("cut %d: epoch %d, live %d", cut, d2.Epoch(), dresden.Epoch())
		}
		if got, want := d2.Status(own.ID), dresden.Status(own.ID); got != want {
			t.Errorf("cut %d: own txn status %v, live %v", cut, got, want)
		}
		_, watermark, ok, err := EngineSnapshotStats(db2, workload.Dresden)
		if err != nil || !ok {
			t.Fatalf("cut %d: engine snapshot stats: ok=%v err=%v", cut, ok, err)
		}
		if cut < post.Size() {
			// Torn batch dropped atomically: checkpoint #1's snapshot is the
			// one on disk, and recovery paid for the longer suffix.
			if watermark != epochAtCk1 {
				t.Errorf("cut %d: snapshot watermark %d, want fallback %d", cut, watermark, epochAtCk1)
			}
			if d2.recReplayTxns == 0 {
				t.Errorf("cut %d: fallback recovery replayed nothing", cut)
			}
		} else if watermark != dresden.Epoch() {
			t.Errorf("cut %d: intact snapshot watermark %d, want %d", cut, watermark, dresden.Epoch())
		}
		if err := db2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func testResolveSurvivesCrash(t *testing.T, ckBeforeResolve bool) {
	dir := t.TempDir()
	db, ds := openDurableTier(t, dir)
	sys, err := NewSystem(workload.Figure2Peers(), workload.Figure2Mappings())
	if err != nil {
		t.Fatal(err)
	}
	alaska := durablePeer(t, workload.Alaska, sys, ds, recon.TrustAll(1), db)
	beijing := durablePeer(t, workload.Beijing, sys, ds, recon.TrustAll(1), db)
	// The durable peer comes up through recovery (as the SDK creates it), so
	// it is attached to the LSM tier and Resolve archives its decision.
	dresden := recoverPeer(t, workload.Dresden, ds, recon.TrustAll(1), db)

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
	reconcile(t, dresden)
	if dresden.Status(bTxn.ID) != recon.StatusDeferred || dresden.Status(aTxn.ID) != recon.StatusDeferred {
		t.Fatalf("setup: beijing=%s alaska=%s", dresden.Status(bTxn.ID), dresden.Status(aTxn.ID))
	}
	if ckBeforeResolve {
		checkpoint(t, dresden, db)
	}

	// The administrator settles the conflict; the decision lands strictly
	// after the last checkpoint (or with no checkpoint at all).
	if _, err := dresden.Resolve(context.Background(), bTxn.ID); err != nil {
		t.Fatal(err)
	}
	// Post-decision history that probes the decision's replay position:
	// beijing modifies the contested data. Live, the translated modify picks
	// up a dependency on the rejected loser and is itself rejected; a
	// recovery that replayed the suffix before re-applying the decision
	// would leave it deferred instead.
	mTxn := commit(t, beijing.NewTransaction().
		Modify("S", workload.STuple(3, 30, "XXXX"), workload.STuple(3, 30, "QQQQ")))
	publish(t, beijing)
	reconcile(t, dresden)
	if dresden.Status(mTxn.ID) != recon.StatusRejected {
		t.Fatalf("setup: post-decision modify = %s, expected the live path to reject it",
			dresden.Status(mTxn.ID))
	}

	// Kill and restart.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, ds2 := openDurableTier(t, dir)
	d2 := recoverPeer(t, workload.Dresden, ds2, recon.TrustAll(1), db2)

	if d2.Status(bTxn.ID) != recon.StatusAccepted {
		t.Errorf("recovered winner status = %s, want accepted", d2.Status(bTxn.ID))
	}
	if d2.Status(aTxn.ID) != recon.StatusRejected {
		t.Errorf("recovered loser status = %s, want rejected", d2.Status(aTxn.ID))
	}
	if got, want := d2.Status(mTxn.ID), dresden.Status(mTxn.ID); got != want {
		t.Errorf("post-decision modify status: recovered %s, live %s", got, want)
	}
	if !d2.Instance().Equal(dresden.Instance()) {
		t.Fatalf("recovered instance (%d tuples) != live (%d tuples)",
			instSize(d2.Instance()), instSize(dresden.Instance()))
	}
	winRow := workload.OPSTuple("fly", "tnf", "XXXX")
	got, ok := d2.Instance().Table("OPS").Get(winRow)
	if !ok {
		t.Fatal("recovered instance lost the winner's row")
	}
	want, _ := dresden.Instance().Table("OPS").Get(winRow)
	if !got.Prov.Equal(want.Prov) {
		t.Errorf("provenance of %v: recovered %v, live %v", winRow, got.Prov, want.Prov)
	}

	// A clean checkpoint folds the decision into the engine snapshot and
	// clears the archive; a second crash must still come back settled.
	checkpoint(t, d2, db2)
	if archived := countKeys(t, db2, rkBase(workload.Dresden)); archived != 0 {
		t.Errorf("decision archive holds %d records after a clean checkpoint, want 0", archived)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	db3, ds3 := openDurableTier(t, dir)
	defer db3.Close()
	d3 := recoverPeer(t, workload.Dresden, ds3, recon.TrustAll(1), db3)
	if d3.Status(bTxn.ID) != recon.StatusAccepted || d3.Status(aTxn.ID) != recon.StatusRejected {
		t.Errorf("after snapshot fold-in: winner=%s loser=%s", d3.Status(bTxn.ID), d3.Status(aTxn.ID))
	}
	if d3.recReplayTxns != 0 {
		t.Errorf("snapshot-covered recovery replayed %d txns, want 0", d3.recReplayTxns)
	}
	if !d3.Instance().Equal(dresden.Instance()) {
		t.Fatal("instance diverged after snapshot fold-in recovery")
	}
}

// TestResolveSurvivesCrashRecovery: kill-and-restart after Peer.Resolve must
// keep the conflict settled and the winner applied — when the decision lands
// after the last checkpoint, and when no checkpoint was ever taken.
func TestResolveSurvivesCrashRecovery(t *testing.T) {
	t.Run("decision-after-checkpoint", func(t *testing.T) { testResolveSurvivesCrash(t, true) })
	t.Run("no-checkpoint-full-replay", func(t *testing.T) { testResolveSurvivesCrash(t, false) })
}

// TestResolveSurvivesDirtyCheckpointCrash: a checkpoint taken while the
// engine is dirty cannot write an image, so it writes no blob and keeps the
// journal. Recovery replays the whole archive and re-applies
// the decision from the journal — exactly once: double application would
// corrupt provenance.
func TestResolveSurvivesDirtyCheckpointCrash(t *testing.T) {
	dir := t.TempDir()
	db, ds := openDurableTier(t, dir)
	sys, err := NewSystem(workload.Figure2Peers(), workload.Figure2Mappings())
	if err != nil {
		t.Fatal(err)
	}
	alaska := durablePeer(t, workload.Alaska, sys, ds, recon.TrustAll(1), db)
	beijing := durablePeer(t, workload.Beijing, sys, ds, recon.TrustAll(1), db)
	dresden := recoverPeer(t, workload.Dresden, ds, recon.TrustAll(1), db)
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
	reconcile(t, dresden)
	if _, err := dresden.Resolve(context.Background(), bTxn.ID); err != nil {
		t.Fatal(err)
	}

	// Simulate a failed Apply having left the engine undefined, then
	// checkpoint: no image can be written (there was none before, either).
	dresden.mu.Lock()
	dresden.engineDirty = true
	dresden.mu.Unlock()
	checkpoint(t, dresden, db)
	if _, _, ok, err := EngineSnapshotStats(db, workload.Dresden); err != nil || ok {
		t.Fatalf("dirty checkpoint left an engine snapshot: ok=%v err=%v", ok, err)
	}
	sn := db.Snapshot()
	rb := rkBase(workload.Dresden)
	// The journal holds the round that deferred the conflict, then the
	// decision.
	var decisions []trustEvent
	err = sn.Scan(rb, lsm.PrefixEnd(rb), func(k, v []byte) bool {
		d, e := decodeEvent(v)
		if e != nil {
			t.Errorf("bad archived event: %v", e)
			return false
		}
		if len(k) != len(rb)+8 {
			t.Errorf("malformed event key %x", k)
		}
		if d.ID.Peer != "" && d.ID.Peer != workload.Dresden {
			decisions = append(decisions, d)
		}
		return true
	})
	sn.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(decisions) != 1 || decisions[0].ID != bTxn.ID {
		t.Fatalf("archived decisions after dirty checkpoint: %+v", decisions)
	}

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, ds2 := openDurableTier(t, dir)
	defer db2.Close()
	d2 := recoverPeer(t, workload.Dresden, ds2, recon.TrustAll(1), db2)
	if d2.Status(bTxn.ID) != recon.StatusAccepted || d2.Status(aTxn.ID) != recon.StatusRejected {
		t.Errorf("recovered: winner=%s loser=%s", d2.Status(bTxn.ID), d2.Status(aTxn.ID))
	}
	if !d2.Instance().Equal(dresden.Instance()) {
		t.Fatalf("recovered instance (%d tuples) != live (%d tuples)",
			instSize(d2.Instance()), instSize(dresden.Instance()))
	}
	// The decisive check: the winner's row carries the live provenance, not a
	// doubled polynomial from applying the winner's updates twice.
	winRow := workload.OPSTuple("fly", "tnf", "XXXX")
	got, ok := d2.Instance().Table("OPS").Get(winRow)
	if !ok {
		t.Fatal("winner row missing after recovery")
	}
	want, _ := dresden.Instance().Table("OPS").Get(winRow)
	if !got.Prov.Equal(want.Prov) {
		t.Errorf("winner provenance: recovered %v, live %v", got.Prov, want.Prov)
	}
}
