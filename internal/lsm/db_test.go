package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// flush forces the memtable (and any frozen predecessors) into an SSTable
// segment and advances the WAL floor past their log records, so a test can
// place data in a segment without writing a memtable's worth of it.
func (db *DB) flush() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.usable(); err != nil {
		return err
	}
	return db.flushLocked()
}

// del tombstones one key (a one-op batch).
func (db *DB) del(key []byte, sync bool) error {
	b := NewBatch()
	b.Delete(key)
	return db.Apply(b, sync)
}

func mustOpen(t *testing.T, dir string, opt Options) *DB {
	t.Helper()
	db, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// smallOpts forces frequent flushes/rotations so tests exercise every tier.
func smallOpts() Options {
	return Options{MemtableBytes: 4 << 10, WALSegmentBytes: 8 << 10, BlockBytes: 256, CompactFanIn: 3}
}

func TestDBBasicPutGetDelete(t *testing.T) {
	db := mustOpen(t, t.TempDir(), Options{})
	defer db.Close()
	if err := db.Put([]byte("k1"), []byte("v1"), true); err != nil {
		t.Fatal(err)
	}
	v, ok, err := db.Get([]byte("k1"))
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("get: %q %v %v", v, ok, err)
	}
	if err := db.del([]byte("k1"), true); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := db.Get([]byte("k1")); ok {
		t.Fatal("deleted key still visible")
	}
	if _, ok, _ := db.Get([]byte("nope")); ok {
		t.Fatal("phantom key")
	}
}

// A randomized workload against an in-memory oracle, with flushes and
// compactions forced by tiny thresholds, then a reopen: the recovered state
// must equal the oracle exactly.
func TestDBRandomizedVsOracle(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, dir, smallOpts())
	oracle := map[string]string{}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 4000; i++ {
		k := fmt.Sprintf("key-%03d", rng.Intn(300))
		if rng.Intn(4) == 0 {
			delete(oracle, k)
			if err := db.del([]byte(k), false); err != nil {
				t.Fatal(err)
			}
		} else {
			v := fmt.Sprintf("val-%d", i)
			oracle[k] = v
			if err := db.Put([]byte(k), []byte(v), false); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkOracle(t, db, oracle, "live")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := mustOpen(t, dir, smallOpts())
	defer db2.Close()
	checkOracle(t, db2, oracle, "reopened")
}

func checkOracle(t *testing.T, db *DB, oracle map[string]string, when string) {
	t.Helper()
	for k, want := range oracle {
		v, ok, err := db.Get([]byte(k))
		if err != nil {
			t.Fatal(err)
		}
		if !ok || string(v) != want {
			t.Fatalf("%s: key %s = %q/%v, want %q", when, k, v, ok, want)
		}
	}
	// Scan must visit exactly the oracle's keys, in order.
	sn := db.Snapshot()
	defer sn.Close()
	var got []string
	var prev []byte
	err := sn.Scan(nil, nil, func(k, v []byte) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("%s: scan out of order: %q after %q", when, k, prev)
		}
		prev = append(prev[:0], k...)
		got = append(got, string(k))
		if oracle[string(k)] != string(v) {
			t.Fatalf("%s: scan %s = %q, want %q", when, k, v, oracle[string(k)])
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(oracle) {
		t.Fatalf("%s: scan saw %d keys, oracle has %d", when, len(got), len(oracle))
	}
}

func TestSnapshotIsolation(t *testing.T) {
	db := mustOpen(t, t.TempDir(), smallOpts())
	defer db.Close()
	for i := 0; i < 50; i++ {
		db.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("old"), false)
	}
	sn := db.Snapshot()
	defer sn.Close()
	// Overwrite, delete, and flush under the snapshot.
	for i := 0; i < 50; i++ {
		db.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("new"), false)
	}
	db.del([]byte("k00"), false)
	if err := db.flush(); err != nil {
		t.Fatal(err)
	}
	n := 0
	sn.Scan(nil, nil, func(k, v []byte) bool {
		n++
		if string(v) != "old" {
			t.Fatalf("snapshot leaked new value for %s", k)
		}
		return true
	})
	if n != 50 {
		t.Fatalf("snapshot scan saw %d keys, want 50", n)
	}
	if v, ok, _ := sn.Get([]byte("k00")); !ok || string(v) != "old" {
		t.Fatal("snapshot lost deleted key's old value")
	}
}

func TestScanRange(t *testing.T) {
	db := mustOpen(t, t.TempDir(), Options{})
	defer db.Close()
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte{byte(i)}, false)
	}
	sn := db.Snapshot()
	defer sn.Close()
	var got []string
	sn.Scan([]byte("k010"), []byte("k020"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if len(got) != 10 || got[0] != "k010" || got[9] != "k019" {
		t.Fatalf("range scan = %v", got)
	}
	// Early stop.
	n := 0
	sn.Scan(nil, nil, func(k, v []byte) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early stop scanned %d", n)
	}
}

func TestCompactionReducesSegments(t *testing.T) {
	db := mustOpen(t, t.TempDir(), smallOpts())
	defer db.Close()
	// Write far more than the memtable bound with heavy overwrites, forcing
	// many flushes; compaction must keep the segment count bounded.
	for i := 0; i < 8000; i++ {
		k := fmt.Sprintf("key-%03d", i%111)
		if err := db.Put([]byte(k), bytes.Repeat([]byte{byte(i)}, 32), false); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.Tables > 8 {
		t.Fatalf("compaction left %d segments", st.Tables)
	}
	// All 111 live keys survive the merges.
	sn := db.Snapshot()
	defer sn.Close()
	n := 0
	sn.Scan(nil, nil, func(k, v []byte) bool { n++; return true })
	if n != 111 {
		t.Fatalf("scan after compaction saw %d keys, want 111", n)
	}
}

func TestBatchAtomicityAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, dir, Options{})
	b := NewBatch()
	for i := 0; i < 10; i++ {
		b.Put([]byte(fmt.Sprintf("b%d", i)), []byte("x"))
	}
	if err := db.Apply(b, true); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := mustOpen(t, dir, Options{})
	defer db2.Close()
	for i := 0; i < 10; i++ {
		if _, ok, _ := db2.Get([]byte(fmt.Sprintf("b%d", i))); !ok {
			t.Fatalf("batch key b%d lost", i)
		}
	}
}

func TestTombstonesMaskOlderSegments(t *testing.T) {
	db := mustOpen(t, t.TempDir(), smallOpts())
	defer db.Close()
	db.Put([]byte("gone"), []byte("v"), false)
	if err := db.flush(); err != nil { // "gone" now lives in a segment
		t.Fatal(err)
	}
	db.del([]byte("gone"), false)
	if err := db.flush(); err != nil { // tombstone in a newer segment
		t.Fatal(err)
	}
	if _, ok, _ := db.Get([]byte("gone")); ok {
		t.Fatal("tombstone failed to mask older segment")
	}
	sn := db.Snapshot()
	defer sn.Close()
	sn.Scan(nil, nil, func(k, v []byte) bool {
		if string(k) == "gone" {
			t.Fatal("scan resurrected a deleted key")
		}
		return true
	})
}
