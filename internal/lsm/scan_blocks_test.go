package lsm

import (
	"bytes"
	"fmt"
	"testing"

	"orchestra/internal/obs"
)

// TestScanReadsOnlyOverlappingBlocks pins that a range scan reads only the
// segment blocks its range overlaps. A large value sits right after a run
// of small rows, the way a peer's engine blob follows its checkpoint rows:
// it must get a block of its own, and scanning the rows, an empty range
// beside them, or a range past the segment must leave it unread.
func TestScanReadsOnlyOverlappingBlocks(t *testing.T) {
	reg := obs.NewRegistry()
	db := mustOpen(t, t.TempDir(), Options{BlockBytes: 256, Metrics: reg})
	defer db.Close()
	b := NewBatch()
	const rows = 47 // the last row block is not full
	for i := range rows {
		b.Put([]byte(fmt.Sprintf("c/%03d", i)), bytes.Repeat([]byte{'v'}, 20))
	}
	b.Put([]byte("e/blob"), bytes.Repeat([]byte{'b'}, 64<<10))
	if err := db.Apply(b, false); err != nil {
		t.Fatal(err)
	}
	if err := db.flush(); err != nil {
		t.Fatal(err)
	}
	if len(db.tables) != 1 {
		t.Fatalf("%d segments, want 1", len(db.tables))
	}
	idx := db.tables[0].index
	if last := idx[len(idx)-1]; string(last.firstKey) != "e/blob" {
		t.Fatalf("last block starts at %q, want the large value alone", last.firstKey)
	}
	rowBlocks := int64(len(idx) - 1)

	sn := db.Snapshot()
	defer sn.Close()
	for _, c := range []struct {
		lo, hi       string
		keys         int
		blocksAtMost int64
	}{
		{"c/", "c0", rows, rowBlocks}, // every row block, not the blob's
		{"d/", "e/", 0, 1},            // the last row block, to seek
		{"f/", "", 0, 0},              // past the segment: nothing
		{"", "a", 0, 0},               // before the segment: nothing
	} {
		before := reg.Snapshot().Counters["lsm_block_reads_total"]
		var lo, hi []byte
		if c.lo != "" {
			lo = []byte(c.lo)
		}
		if c.hi != "" {
			hi = []byte(c.hi)
		}
		n := 0
		if err := sn.Scan(lo, hi, func(k, v []byte) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		read := reg.Snapshot().Counters["lsm_block_reads_total"] - before
		if n != c.keys || read > c.blocksAtMost {
			t.Errorf("scan [%q, %q): %d keys, %d blocks read; want %d keys, at most %d blocks",
				c.lo, c.hi, n, read, c.keys, c.blocksAtMost)
		}
	}
}
