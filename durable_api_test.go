package orchestra_test

// Public-API durability: a confederation opened with WithDurableDir
// survives the whole process dying — peers come back from their
// checkpoints plus the published archive, with exactly the documented loss
// window (local commits made after the last checkpoint or publish).

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"orchestra"
)

func TestDurableSystemSurvivesRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	sys, err := orchestra.Open(geneSchema(t), orchestra.WithDurableDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	alice, err := sys.Peer("alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := sys.Peer("bob")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Begin().Insert("Gene", gene("BRCA1", 17)).Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Publish(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Begin().Insert("Gene", gene("TP53", 17)).Commit(); err != nil {
		t.Fatal(err)
	}
	// TP53 is committed but unpublished; Close checkpoints it.
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	// The process "restarts": a fresh System over the same directory.
	sys2, err := orchestra.Open(geneSchema(t), orchestra.WithDurableDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	alice2, err := sys2.Peer("alice")
	if err != nil {
		t.Fatal(err)
	}
	bob2, err := sys2.Peer("bob")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := alice2.Rows("Gene")
	if err != nil || len(rows) != 1 {
		t.Fatalf("alice recovered %d rows (%v), want 1", len(rows), err)
	}
	rows, err = bob2.Rows("Gene")
	if err != nil || len(rows) != 2 {
		t.Fatalf("bob recovered %d rows (%v), want 2 (one published, one queued)", len(rows), err)
	}
	// The queued commit is still queued: publishing it now propagates it.
	epoch, n, err := bob2.PublishAll(ctx)
	if err != nil || n != 1 {
		t.Fatalf("publish recovered queue: epoch %d, %d txns, %v", epoch, n, err)
	}
	if _, err := alice2.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	rows, err = alice2.Rows("Gene")
	if err != nil || len(rows) != 2 {
		t.Fatalf("alice after catch-up: %d rows (%v)", len(rows), err)
	}
	// Provenance survives the round trip through the checkpoint codec.
	if prov, _, ok := alice2.Explain("Gene", gene("BRCA1", 17)); !ok || prov.IsZero() {
		t.Errorf("provenance lost in recovery: ok=%v prov=%v", ok, prov)
	}
	// Sequence numbers resume: a fresh commit+publish does not collide with
	// the archived history.
	if _, err := bob2.Begin().Insert("Gene", gene("EGFR", 7)).Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := bob2.Publish(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestDurableStoreReplicaSurvivesRestart is `orchestra serve -durable DIR`
// through the SDK: a store replica over OpenDurableStore archives what
// peers publish to it, and a replica restarted on the same directory serves
// it to a peer that was never there.
func TestDurableStoreReplicaSurvivesRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	serve := func() (*orchestra.DurableStore, *orchestra.StoreServer) {
		store, err := orchestra.OpenDurableStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := orchestra.NewStoreServer(store, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return store, srv
	}
	store, srv := serve()
	_, alice, _ := openGenes(t, orchestra.WithStore(orchestra.DialStore(srv.Addr())))
	if _, err := alice.Begin().Insert("Gene", gene("BRCA1", 17)).Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Publish(ctx); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, srv2 := serve()
	defer store2.Close()
	defer srv2.Close()
	_, _, bob := openGenes(t, orchestra.WithStore(orchestra.DialStore(srv2.Addr())))
	if _, err := bob.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	if rows, err := bob.Rows("Gene"); err != nil || len(rows) != 1 {
		t.Fatalf("bob has %d rows (%v) from the restarted replica, want 1", len(rows), err)
	}
}

func TestDurableDirExcludesWithStore(t *testing.T) {
	_, err := orchestra.Open(geneSchema(t),
		orchestra.WithDurableDir(t.TempDir()),
		orchestra.WithStore(orchestra.NewMemoryStore()))
	if err == nil {
		t.Fatal("WithDurableDir + WithStore accepted")
	}
}

func TestCheckpointOnDemandAndOnMemorySystems(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	sys, err := orchestra.Open(geneSchema(t), orchestra.WithDurableDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	alice, err := sys.Peer("alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Begin().Insert("Gene", gene("MYC", 8)).Commit(); err != nil {
		t.Fatal(err)
	}
	// Explicit checkpoint (no publish): bounds the crash-loss window.
	if err := alice.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	sys2, err := orchestra.Open(geneSchema(t), orchestra.WithDurableDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	alice2, err := sys2.Peer("alice")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := alice2.Rows("Gene")
	if err != nil || len(rows) != 1 {
		t.Fatalf("checkpointed commit lost: %d rows, %v", len(rows), err)
	}
	if _, err := alice2.Publish(ctx); err != nil {
		t.Fatal(err)
	}

	// In-memory systems reject Checkpoint with a clear error.
	memSys, memAlice, _ := openGenes(t)
	_ = memSys
	if err := memAlice.Checkpoint(); err == nil {
		t.Error("Checkpoint on an in-memory system accepted")
	}
}

// The steady state of the durable tier is on the debug endpoint: what the
// memtable holds, how many frozen memtables, WAL segments and tables there
// are, and how many images (engine blobs) have been written.
func TestDurableSteadyStateSeriesOnDebugEndpoint(t *testing.T) {
	ctx := context.Background()
	sys, err := orchestra.Open(geneSchema(t), orchestra.WithDurableDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	alice, err := sys.Peer("alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Begin().Insert("Gene", gene("BRCA1", 17)).Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Publish(ctx); err != nil { // the ride-along checkpoint writes the first image
		t.Fatal(err)
	}
	srv := httptest.NewServer(sys.DebugHandler())
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL + "/debug/orchestra")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var m orchestra.MetricsSnapshot
	if err := json.NewDecoder(res.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"lsm_memtable_bytes", "lsm_frozen_memtables", "lsm_wal_segments", "lsm_tables"} {
		if _, ok := m.Gauges[name]; !ok {
			t.Errorf("gauge %s missing from /debug/orchestra: %v", name, m.Gauges)
		}
	}
	if m.Gauges["lsm_memtable_bytes"] == 0 || m.Gauges["lsm_wal_segments"] != 1 || m.Gauges["lsm_frozen_memtables"] != 0 {
		t.Errorf("steady-state gauges after one publish: %v", m.Gauges)
	}
	if m.Counters["core_engine_blob_writes_total"] != 1 {
		t.Errorf("checkpoint counters after one single-row publish: %v", m.Counters)
	}
}
