package p2p

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"orchestra/internal/lsm"
	"orchestra/internal/updates"
)

func openDurable(t *testing.T, dir string) (*lsm.DB, *DurableStore) {
	t.Helper()
	db, err := lsm.Open(dir, lsm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := NewDurableStore(db)
	if err != nil {
		t.Fatal(err)
	}
	return db, ds
}

func TestDurableStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, ds := openDurable(t, dir)
	t1 := txn("a", 1, updates.Insert("R", tup("x")))
	t2 := txn("b", 1, updates.Insert("R", tup("y")))
	if e, err := ds.Publish([]*updates.Transaction{t1}); err != nil || e != 1 {
		t.Fatalf("publish 1: %d %v", e, err)
	}
	if e, err := ds.Publish([]*updates.Transaction{t2}); err != nil || e != 2 {
		t.Fatalf("publish 2: %d %v", e, err)
	}
	if n := archived(t, ds); n != 2 {
		t.Errorf("archived %d transactions, want 2", n)
	}
	if _, err := ds.Publish([]*updates.Transaction{txn("a", 1)}); !errors.Is(err, ErrAlreadyPublished) {
		t.Errorf("duplicate publish: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: epoch, order, and dedup state all recover from the LSM.
	db2, ds2 := openDurable(t, dir)
	defer db2.Close()
	got, epoch, err := ds2.Since(0)
	if err != nil || len(got) != 2 || epoch != 2 {
		t.Fatalf("after reopen: %d txns at epoch %d, %v", len(got), epoch, err)
	}
	if got[0].ID != t1.ID || got[1].ID != t2.ID {
		t.Errorf("order lost: %v %v", got[0].ID, got[1].ID)
	}
	if got[0].Epoch != 1 || got[1].Epoch != 2 {
		t.Errorf("epochs lost: %d %d", got[0].Epoch, got[1].Epoch)
	}
	if tail, _, err := ds2.Since(1); err != nil || len(tail) != 1 || tail[0].ID != t2.ID {
		t.Fatalf("since(1): %v %v", tail, err)
	}
	if e, err := ds2.Publish([]*updates.Transaction{txn("c", 1, updates.Insert("R", tup("z")))}); err != nil || e != 3 {
		t.Errorf("continue publish: %d %v", e, err)
	}
	if _, err := ds2.Publish([]*updates.Transaction{txn("a", 1)}); !errors.Is(err, ErrAlreadyPublished) {
		t.Errorf("duplicate accepted after restart: %v", err)
	}
}

func TestDurableStoreBatchIsAtomic(t *testing.T) {
	dir := t.TempDir()
	db, ds := openDurable(t, dir)
	defer db.Close()
	// One PublishAll window: many transactions, one epoch, one batch.
	batch := []*updates.Transaction{
		txn("a", 1, updates.Insert("R", tup("x"))),
		txn("a", 2, updates.Insert("R", tup("y"))),
		txn("b", 1, updates.Insert("R", tup("z"))),
	}
	e, err := ds.Publish(batch)
	if err != nil || e != 1 {
		t.Fatalf("publish: %d %v", e, err)
	}
	got, _, err := ds.Since(0)
	if err != nil || len(got) != 3 {
		t.Fatalf("since: %d %v", len(got), err)
	}
	for i, g := range got {
		if g.Epoch != 1 || g.ID != batch[i].ID {
			t.Fatalf("txn %d: %v epoch %d", i, g.ID, g.Epoch)
		}
	}
	// An intra-batch duplicate rejects the whole batch, leaving no trace.
	if _, err := ds.Publish([]*updates.Transaction{txn("c", 1), txn("c", 1)}); !errors.Is(err, ErrAlreadyPublished) {
		t.Fatalf("intra-batch duplicate: %v", err)
	}
	if n := archived(t, ds); n != 3 {
		t.Fatalf("failed publish left traces: %d transactions archived", n)
	}
	if _, err := ds.Publish([]*updates.Transaction{txn("c", 1)}); err != nil {
		t.Fatalf("peer c's txn should still be publishable: %v", err)
	}
}

// walFrameEnds parses the lsm WAL frame format ([4B LE len][4B CRC][payload])
// from outside the package: the cut harness needs frame boundaries to compute
// the expected durable prefix.
func walFrameEnds(t *testing.T, path string) []int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const hdr = 8
	var ends []int
	off := 0
	for off+hdr <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if off+hdr+n > len(data) {
			break
		}
		off += hdr + n
		ends = append(ends, off)
	}
	return ends
}

func copyTree(t *testing.T, src, dst string) {
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

// The store-level crash harness: publish through a DurableStore, abandon the
// DB without Close (all state is the synced WAL), cut the WAL at randomized
// byte offsets, reopen. The recovered archive must be exactly the longest
// durable prefix of published batches — and the lost suffix must be
// republishable, because its seen markers died with it.
func TestDurableStoreRandomizedCutRecovery(t *testing.T) {
	src := t.TempDir()
	db, ds := openDurable(t, src)
	const batches = 20
	for i := 1; i <= batches; i++ {
		if _, err := ds.Publish([]*updates.Transaction{txn("p", uint64(i), updates.Insert("R", tup(fmt.Sprintf("v%02d", i))))}); err != nil {
			t.Fatal(err)
		}
	}
	// Simulated crash: no Close, no flush; db deliberately leaked.
	_ = db
	wals, err := filepath.Glob(filepath.Join(src, "wal-*.log"))
	if err != nil || len(wals) != 1 {
		t.Fatalf("want one wal segment, got %v (%v)", wals, err)
	}
	ends := walFrameEnds(t, wals[0])
	if len(ends) != batches {
		t.Fatalf("found %d frames, want %d", len(ends), batches)
	}
	size := ends[len(ends)-1]

	rng := rand.New(rand.NewSource(5))
	cuts := []int{0, 3, size - 1, size}
	for len(cuts) < 16 {
		cuts = append(cuts, rng.Intn(size))
	}
	for _, cut := range cuts {
		dst := t.TempDir()
		copyTree(t, src, dst)
		if err := os.Truncate(filepath.Join(dst, filepath.Base(wals[0])), int64(cut)); err != nil {
			t.Fatal(err)
		}
		survived := 0
		for _, e := range ends {
			if e <= cut {
				survived++
			}
		}
		db2, ds2 := openDurable(t, dst)
		got, epoch, err := ds2.Since(0)
		if err != nil {
			t.Fatalf("cut %d: since: %v", cut, err)
		}
		if epoch != uint64(survived) || len(got) != survived {
			t.Fatalf("cut %d: recovered %d txns at epoch %d, want %d", cut, len(got), epoch, survived)
		}
		for i, g := range got {
			if g.ID.Seq != uint64(i+1) || g.Epoch != uint64(i+1) {
				t.Fatalf("cut %d: txn %d is %v@%d", cut, i, g.ID, g.Epoch)
			}
		}
		// The first lost transaction is republishable; the last surviving one
		// is still a duplicate.
		if survived > 0 {
			if _, err := ds2.Publish([]*updates.Transaction{txn("p", uint64(survived))}); !errors.Is(err, ErrAlreadyPublished) {
				t.Fatalf("cut %d: surviving txn not deduped: %v", cut, err)
			}
		}
		if survived < batches {
			if e, err := ds2.Publish([]*updates.Transaction{txn("p", uint64(survived+1))}); err != nil || e != uint64(survived+1) {
				t.Fatalf("cut %d: republish lost txn: %d %v", cut, e, err)
			}
		}
		db2.Close()
	}
}
