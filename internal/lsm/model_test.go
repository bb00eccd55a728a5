package lsm

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"orchestra/internal/obs"
)

// modelSeeds is how many seeded schedules TestModel runs; CI runs the
// default set, a local soak raises it (go test ./internal/lsm -run Model
// -seeds=200).
var modelSeeds = flag.Int("seeds", 10, "seeded schedules for TestModel")

// model is the oracle: a plain map, sorted on demand.
type model map[string]string

func (m model) clone() model {
	out := make(model, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// scan returns the oracle's entries in [lo, hi), ascending.
func (m model) scan(lo, hi []byte) [][2]string {
	var out [][2]string
	for k, v := range m {
		if (lo == nil || k >= string(lo)) && (hi == nil || k < string(hi)) {
			out = append(out, [2]string{k, v})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// heldView is a snapshot with the oracle as it stood when it was taken.
type heldView struct {
	sn   *Snapshot
	want model
	step int
}

// checkView compares one snapshot against its oracle through every read
// path: Get on present and absent keys, an unbounded Scan, a bounded Scan,
// and a bounded Iter.
func checkView(t *testing.T, rng *rand.Rand, label string, sn *Snapshot, want model, keys []string) {
	t.Helper()
	for i := 0; i < 8; i++ {
		k := keys[rng.Intn(len(keys))]
		v, ok, err := sn.Get([]byte(k))
		if err != nil {
			t.Fatalf("%s: Get(%s): %v", label, k, err)
		}
		if wv, wok := want[k]; ok != wok || (ok && string(v) != wv) {
			t.Fatalf("%s: Get(%s) = %q/%v, want %q/%v", label, k, v, ok, wv, wok)
		}
	}
	collect := func(lo, hi []byte) [][2]string {
		var got [][2]string
		if err := sn.Scan(lo, hi, func(k, v []byte) bool {
			got = append(got, [2]string{string(k), string(v)})
			return true
		}); err != nil {
			t.Fatalf("%s: Scan: %v", label, err)
		}
		return got
	}
	same := func(what string, got, exp [][2]string) {
		if len(got) != len(exp) {
			t.Fatalf("%s: %s saw %d entries, want %d\n got: %v\nwant: %v", label, what, len(got), len(exp), got, exp)
		}
		for i := range got {
			if got[i] != exp[i] {
				t.Fatalf("%s: %s entry %d = %v, want %v", label, what, i, got[i], exp[i])
			}
		}
	}
	same("unbounded Scan", collect(nil, nil), want.scan(nil, nil))
	lo, hi := []byte(keys[rng.Intn(len(keys))]), []byte(keys[rng.Intn(len(keys))])
	if bytes.Compare(lo, hi) > 0 {
		lo, hi = hi, lo
	}
	same(fmt.Sprintf("Scan[%s,%s)", lo, hi), collect(lo, hi), want.scan(lo, hi))
	same(fmt.Sprintf("Scan[%s,∞)", lo), collect(lo, nil), want.scan(lo, nil))
	var viaIter [][2]string
	it := sn.Iter(lo, hi)
	for it.Next() {
		viaIter = append(viaIter, [2]string{string(it.Key()), string(it.Value())})
	}
	if err := it.Err(); err != nil {
		t.Fatalf("%s: Iter: %v", label, err)
	}
	same(fmt.Sprintf("Iter[%s,%s)", lo, hi), viaIter, want.scan(lo, hi))
}

// TestModel drives random Apply / Snapshot / Close / Flush / reopen
// schedules against the oracle. Every held snapshot must keep answering as
// of the step it was taken, across later writes, flushes, compactions and
// the release of other snapshots.
func TestModel(t *testing.T) {
	for seed := int64(1); seed <= int64(*modelSeeds); seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runModel(t, seed) })
	}
}

func runModel(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	opt := smallOpts()
	opt.NoSync = true
	db := mustOpen(t, dir, opt)
	defer func() { db.Close() }()
	keys := make([]string, 60)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
	}
	cur := model{}
	var held []heldView
	closeHeld := func(i int) {
		held[i].sn.Close()
		held = append(held[:i], held[i+1:]...)
	}
	for step := 0; step < 400; step++ {
		switch op := rng.Intn(20); {
		case op < 12:
			b := NewBatch()
			for n := 1 + rng.Intn(8); n > 0; n-- {
				k := keys[rng.Intn(len(keys))]
				if b.Len() > 0 && rng.Intn(4) == 0 {
					k = string(b.ops[rng.Intn(b.Len())].key) // same key again in this batch
				}
				if rng.Intn(3) == 0 {
					b.Delete([]byte(k))
					delete(cur, k)
				} else {
					v := fmt.Sprintf("v%d.%d-%s", step, n, bytes.Repeat([]byte{'x'}, rng.Intn(40)))
					b.Put([]byte(k), []byte(v))
					cur[k] = v
				}
			}
			if err := db.Apply(b, false); err != nil {
				t.Fatalf("step %d: apply: %v", step, err)
			}
		case op < 15:
			held = append(held, heldView{sn: db.Snapshot(), want: cur.clone(), step: step})
		case op < 17:
			if len(held) > 0 {
				closeHeld(rng.Intn(len(held)))
			}
		case op < 19:
			if err := db.flush(); err != nil {
				t.Fatalf("step %d: flush: %v", step, err)
			}
		default:
			for len(held) > 0 {
				closeHeld(0)
			}
			if rng.Intn(2) == 0 {
				if err := db.Close(); err != nil {
					t.Fatalf("step %d: close: %v", step, err)
				}
			} // else: abandoned without Close — the WAL alone carries it
			db = mustOpen(t, dir, opt)
		}
		if st := db.Stats(); st.FrozenMemtables != 0 {
			t.Fatalf("step %d: %d frozen memtables outside a flush", step, st.FrozenMemtables)
		}
		sn := db.Snapshot()
		checkView(t, rng, fmt.Sprintf("step %d: live", step), sn, cur, keys)
		sn.Close()
		if len(held) > 0 {
			h := held[rng.Intn(len(held))]
			checkView(t, rng, fmt.Sprintf("step %d: snapshot from step %d", step, h.step), h.sn, h.want, keys)
		}
	}
	for len(held) > 0 {
		h := held[0]
		checkView(t, rng, fmt.Sprintf("end: snapshot from step %d", h.step), h.sn, h.want, keys)
		closeHeld(0)
	}
}

// One writer commits batches that set every key to the same generation
// (and write one key twice); concurrent scanners must see exactly one
// generation per snapshot, never a blend and never a regression, while the
// tiny memtable bound keeps flushing and compacting under them. Run under
// -race this is the memtable's lock-free-reader check.
func TestModelConcurrentScanners(t *testing.T) {
	opt := smallOpts()
	opt.NoSync = true
	db := mustOpen(t, t.TempDir(), opt)
	defer db.Close()
	const nKeys, generations, scanners = 24, 600, 4
	write := func(gen int) error {
		b := NewBatch()
		b.Put([]byte("k00"), []byte("overwritten in the same batch"))
		for i := 0; i < nKeys; i++ {
			b.Put([]byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprint(gen)))
		}
		return db.Apply(b, false)
	}
	if err := write(0); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for s := 0; s < scanners; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			last := -1
			for {
				select {
				case <-done:
					return
				default:
				}
				sn := db.Snapshot()
				gen, n := -1, 0
				err := sn.Scan(nil, nil, func(k, v []byte) bool {
					var g int
					fmt.Sscan(string(v), &g)
					if n == 0 {
						gen = g
					} else if g != gen {
						t.Errorf("scanner %d: key %s at generation %d in a snapshot of generation %d", s, k, g, gen)
						return false
					}
					n++
					return true
				})
				// Point reads through the same snapshot must agree with the
				// scan on every key while the writer links newer versions.
				for i := 0; i < nKeys; i++ {
					k := fmt.Sprintf("k%02d", i)
					if v, ok, gerr := sn.Get([]byte(k)); gerr != nil || !ok || string(v) != fmt.Sprint(gen) {
						t.Errorf("scanner %d: Get(%s) = %q/%v/%v in a snapshot of generation %d", s, k, v, ok, gerr, gen)
					}
				}
				sn.Close()
				if err != nil || n != nKeys || gen < last {
					t.Errorf("scanner %d: scan err=%v saw %d keys at generation %d (previous %d)", s, err, n, gen, last)
					return
				}
				last = gen
			}
		}(s)
	}
	for gen := 1; gen <= generations; gen++ {
		if err := write(gen); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	if st := db.Stats(); st.Tables == 0 {
		t.Fatalf("the run never flushed: %+v", st)
	}
}

// Snapshots are not structural: any number of them between two writes
// leaves no frozen memtable behind. Writes alone reach the flush trigger,
// and a flush trims the WAL back to its active segment.
func TestSnapshotsDoNotFreezeAndWritesFlush(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	db := mustOpen(t, dir, Options{NoSync: true, Metrics: reg})
	defer db.Close()
	if err := db.Put([]byte("a"), []byte("1"), false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		db.Snapshot().Close()
	}
	if err := db.Put([]byte("b"), []byte("2"), false); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.FrozenMemtables != 0 || st.Tables != 0 {
		t.Fatalf("snapshots changed the DB's structure: %+v", st)
	}
	val := make([]byte, 64<<10)
	for i := 0; reg.Counter("lsm_flush_total").Value() == 0; i++ {
		if i > 200 {
			t.Fatal("12 MiB of writes never reached the 4 MiB flush trigger")
		}
		if err := db.Put([]byte(fmt.Sprintf("big%04d", i)), val, false); err != nil {
			t.Fatal(err)
		}
	}
	seqs, err := listWALs(dir)
	if err != nil || len(seqs) >= 2 {
		t.Fatalf("wal segments after a flush: %v (%v), want fewer than two", seqs, err)
	}
	snap := reg.Snapshot()
	if g := snap.Gauges; g["lsm_wal_segments"] != int64(len(seqs)) || g["lsm_tables"] != 1 || g["lsm_frozen_memtables"] != 0 {
		t.Fatalf("gauges after a flush: %v, with %d wal segments on disk", g, len(seqs))
	}
}
