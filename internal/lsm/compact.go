package lsm

import (
	"os"
	"path/filepath"
)

// Size-tiered compaction: segments are bucketed into size tiers (each tier
// covers a 4x size range above compactTierBase), and whenever an
// age-contiguous run of CompactFanIn same-tier segments exists, the run
// merges newest-wins into one segment a tier up. Only age-contiguous runs
// merge — without per-key versions, merging around an intervening segment
// with overlapping keys would let older data resurface. Tombstones drop
// only when the run includes the oldest segment (nothing beneath is left to
// mask).
const compactTierBase = 256 << 10

func sizeTier(size int64) int {
	t := 0
	for s := size; s >= compactTierBase*4; s /= 4 {
		t++
	}
	return t
}

// maybeCompactLocked runs compactions until no tier has a qualifying run.
// Callers hold db.mu.
func (db *DB) maybeCompactLocked() error {
	for {
		start, n := db.pickRun()
		if n == 0 {
			return nil
		}
		if err := db.compactRun(start, n); err != nil {
			return err
		}
	}
}

// pickRun finds the leftmost (oldest) age-contiguous run of at least
// CompactFanIn segments sharing a size tier.
func (db *DB) pickRun() (start, n int) {
	tables := db.man.Tables
	for i := 0; i < len(tables); {
		tier := sizeTier(tables[i].Size)
		j := i + 1
		for j < len(tables) && sizeTier(tables[j].Size) == tier {
			j++
		}
		if j-i >= db.opt.CompactFanIn {
			return i, j - i
		}
		i = j
	}
	return 0, 0
}

// compactRun merges tables [start, start+n) into one segment.
func (db *DB) compactRun(start, n int) error {
	in := db.tables[start : start+n]
	dropTombstones := start == 0
	// Newest-wins merge, the same one scans and flushes use; tombstones
	// survive it unless the run sits at the bottom.
	m := newMerger(nil, in, nil, nil, 0)
	var entries []sstEntry
	for m.next() {
		if m.del && dropTombstones {
			continue
		}
		entries = append(entries, sstEntry{key: m.k, val: m.v, del: m.del})
	}
	if m.fail != nil {
		return m.fail
	}

	oldMetas := append([]tableMeta(nil), db.man.Tables[start:start+n]...)
	newTables := append([]tableMeta(nil), db.man.Tables[:start]...)
	newReaders := append([]*sstReader(nil), db.tables[:start]...)
	var added *sstReader
	if len(entries) > 0 {
		num := db.man.NextFile
		tm, err := writeSSTable(db.dir, num, entries, db.opt.BlockBytes)
		if err != nil {
			return err
		}
		r, err := openSSTable(db.dir, tm, db.met)
		if err != nil {
			return err
		}
		db.man.NextFile++
		newTables = append(newTables, tm)
		newReaders = append(newReaders, r)
		added = r
	}
	newTables = append(newTables, db.man.Tables[start+n:]...)
	newReaders = append(newReaders, db.tables[start+n:]...)
	savedTables := db.man.Tables
	db.man.Tables = newTables
	if err := db.man.save(db.dir); err != nil {
		db.man.Tables = savedTables
		if added != nil {
			added.unref()
		}
		return err
	}
	for _, r := range db.tables[start : start+n] {
		r.unref()
	}
	db.tables = newReaders
	// The manifest no longer references the inputs; unlink them. Snapshots
	// still holding references keep reading the open files.
	db.met.compactions.Inc()
	for _, tm := range oldMetas {
		db.met.compactBytes.Add(tm.Size)
		os.Remove(filepath.Join(db.dir, sstName(tm.Num)))
	}
	return nil
}
