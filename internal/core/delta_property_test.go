package core

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"orchestra/internal/exchange"
	"orchestra/internal/lsm"
	"orchestra/internal/obs"
	"orchestra/internal/p2p"
	"orchestra/internal/recon"
	"orchestra/internal/storage"
	"orchestra/internal/updates"
	"orchestra/internal/workload"
)

// deltaSeeds is how many seeded schedules TestDeltaCheckpointAndRecovery
// runs; `make race` and CI run the default set, a local soak raises it
// (go test ./internal/core -run DeltaCheckpointAndRecovery -seeds=200).
var deltaSeeds = flag.Int("seeds", 8, "seeded schedules for TestDeltaCheckpointAndRecovery")

// recoveryKinds counts, over a whole test run, where recoveries started
// from: no image, an image at the archive's head, an image behind it.
type recoveryKinds struct{ noImage, atHead, behind int }

// TestDeltaCheckpointAndRecovery: two properties of the O(delta) durable
// round, under random schedules of commit (insert / delete / key-replacing
// modify / identical re-insert), publish, reconcile, resolve, checkpoint,
// forced engine failure, and kill-and-reopen from a copy of the directory.
//
// delta == full: after every checkpoint the unpublished queue is slot for
// slot what memory holds, with no stale slot behind it, and so is the meta
// record. After every checkpoint that writes an image, the image's rows,
// decoded, are exactly what a full rewrite would have left — every instance
// row with its polynomial and nothing else; a checkpoint that writes no
// image writes no row.
//
// recovered == never-crashed: after every reopen each recovered peer equals
// the twin that was never killed — rows, polynomials, trust statuses,
// unpublished queue, next sequence number, epoch — whether recovery started
// from no image, from one at the archive's head, or from one behind it.
func TestDeltaCheckpointAndRecovery(t *testing.T) {
	var kinds recoveryKinds
	for seed := int64(1); seed <= int64(*deltaSeeds); seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runDeltaSchedule(t, seed, &kinds) })
	}
	t.Logf("recoveries started from: no image %d, image at the head %d, image behind it %d", kinds.noImage, kinds.atHead, kinds.behind)
	if *deltaSeeds >= 8 && !t.Failed() && (kinds.noImage == 0 || kinds.atHead == 0 || kinds.behind == 0) {
		t.Errorf("the schedules never recovered from every kind of image: %+v", kinds)
	}
}

// deltaSystem is one incarnation of a durable three-peer CDSS: a database
// directory, the archive in it, and the peers recovered from it. The peers
// share Σ1 under identity mappings in a full mesh: every commit reaches
// every peer, so the small value space makes them conflict. Two things a
// translation's result still owes to the evaluator's firing order, which a
// recovered engine's fresh plans can change, are kept out, because they are
// not what this test is about (both are ROADMAP items): no mapping invents
// labeled nulls (which of several null-padded variants a chase keeps), and
// witness sets are exact (which monomials a binding witness bound keeps).
type deltaSystem struct {
	dir   string
	db    *lsm.DB
	store *p2p.DurableStore
	peers []*Peer
}

var deltaTopology = workload.Mesh(3)

// deltaPolicy: two peers trust everyone equally, so conflicting publishers
// defer each other there; the last prefers one of them, so it rejects.
func deltaPolicy(name string) *recon.Policy {
	names := deltaTopology.Names
	if name == names[2] {
		return &recon.Policy{Conditions: []recon.Condition{
			recon.FromPeer(names[0], 2),
			recon.FromPeer(names[1], 1),
		}, Default: recon.Distrusted}
	}
	return recon.TrustAll(1)
}

// openDeltaSystem opens dir and brings every peer up through recovery, the
// only way a durable peer is made, with its own metrics registry. The small
// memtable bound makes flushes and compactions part of every schedule;
// NoSync only skips the fsync itself — what a crash may take back is
// modelled by the kill step.
func openDeltaSystem(t *testing.T, dir string) *deltaSystem {
	t.Helper()
	db, err := lsm.Open(dir, lsm.Options{MemtableBytes: 48 << 10, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := p2p.NewDurableStore(db)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(deltaTopology.Peers, deltaTopology.Mappings)
	if err != nil {
		t.Fatal(err)
	}
	s := &deltaSystem{dir: dir, db: db, store: ds}
	for _, n := range deltaTopology.Names {
		p, err := RecoverPeerWith(context.Background(), n, sys, ds, deltaPolicy(n), exchange.Config{MaxMonomials: -1}, db)
		if err != nil {
			t.Fatalf("recover %s from %s: %v", n, dir, err)
		}
		p.SetObserver(obs.NewRegistry(), 0)
		s.peers = append(s.peers, p)
	}
	return s
}

// activeWAL returns the newest WAL segment in dir and its size.
func activeWAL(t *testing.T, dir string) (string, int64) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("wal segments in %s: %v (%v)", dir, segs, err)
	}
	sort.Strings(segs)
	st, err := os.Stat(segs[len(segs)-1])
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Base(segs[len(segs)-1]), st.Size()
}

// requireImageEqualsInstance decodes the rows of the peer's durable image
// and compares them with the peer's memory, then does the same for the
// queue and meta record: delta == full.
func requireImageEqualsInstance(t *testing.T, label string, db *lsm.DB, p *Peer) {
	t.Helper()
	sn := db.Snapshot()
	defer sn.Close()
	byRel := map[string][]storage.Row{}
	rp := ckRowPrefix(p.name)
	err := sn.Walk(rp, lsm.PrefixEnd(rp), func(k, v []byte) error {
		rel, rest, err := lsm.DecodeString(k[len(rp):])
		if err != nil {
			return err
		}
		tu, err := lsm.DecodeTuple(rest)
		if err != nil {
			return err
		}
		var pd provDecoder
		prov, err := pd.decode(v)
		byRel[rel] = append(byRel[rel], storage.Row{Tuple: tu, Prov: prov})
		return err
	})
	if err != nil {
		t.Fatalf("%s: decode image rows: %v", label, err)
	}
	for _, rel := range p.Instance().Schema().Relations() {
		want, _ := p.Instance().Rows(rel.Name)
		requireSameRows(t, label+": image of "+rel.Name, byRel[rel.Name], want)
		delete(byRel, rel.Name)
	}
	if len(byRel) != 0 {
		t.Fatalf("%s: image holds rows of undeclared relations: %v", label, byRel)
	}
	requireQueueAndMeta(t, label, sn, p)
}

// requireQueueAndMeta compares the unpublished queue and the meta record in
// sn with the peer's memory.
func requireQueueAndMeta(t *testing.T, label string, sn *lsm.Snapshot, p *Peer) {
	t.Helper()
	var derr error
	var queued []updates.TxnID
	up := ckUnpubPrefix(p.name)
	err := sn.Scan(up, lsm.PrefixEnd(up), func(k, v []byte) bool {
		var w p2p.WireTxn
		if derr = json.Unmarshal(v, &w); derr != nil {
			return false
		}
		tx, e := p2p.DecodeTxn(w)
		if e != nil {
			derr = e
			return false
		}
		if want := ckUnpubKey(p.name, len(queued)); string(k) != string(want) {
			derr = fmt.Errorf("queue slot key %x, want %x", k, want)
			return false
		}
		queued = append(queued, tx.ID)
		return true
	})
	if err == nil {
		err = derr
	}
	if err != nil {
		t.Fatalf("%s: decode image queue: %v", label, err)
	}
	if got, want := fmt.Sprint(queued), fmt.Sprint(txnIDs(p.unpublished)); got != want {
		t.Fatalf("%s: image queue %s, memory %s", label, got, want)
	}
	raw, ok, err := sn.Get(ckMetaKey(p.name))
	var meta checkpointMeta
	if err != nil || !ok || json.Unmarshal(raw, &meta) != nil {
		t.Fatalf("%s: image meta: ok=%v err=%v", label, ok, err)
	}
	if meta.NextSeq != p.nextSeq || meta.LastEpoch != p.lastEpoch {
		t.Fatalf("%s: image meta %+v, memory next_seq=%d last_epoch=%d", label, meta, p.nextSeq, p.lastEpoch)
	}
}

// imageRows returns the peer's image rows in db, raw key to raw value.
func imageRows(t *testing.T, db *lsm.DB, peer string) map[string]string {
	t.Helper()
	sn := db.Snapshot()
	defer sn.Close()
	rows := map[string]string{}
	rp := ckRowPrefix(peer)
	if err := sn.Scan(rp, lsm.PrefixEnd(rp), func(k, v []byte) bool {
		rows[string(k)] = string(v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

func txnIDs(ts []*updates.Transaction) []updates.TxnID {
	out := make([]updates.TxnID, len(ts))
	for i, tx := range ts {
		out[i] = tx.ID
	}
	return out
}

// requireTwin compares a recovered peer with the one that was never killed.
func requireTwin(t *testing.T, label string, got, want *Peer) {
	t.Helper()
	for _, rel := range want.Instance().Schema().Relations() {
		g, _ := got.Instance().Rows(rel.Name)
		w, _ := want.Instance().Rows(rel.Name)
		requireSameRows(t, label+": "+rel.Name, g, w)
	}
	ids := map[updates.TxnID]bool{}
	for _, p := range []*Peer{got, want} {
		for _, id := range p.state.IDs() {
			ids[id] = true
		}
	}
	for id := range ids {
		if g, w := got.Status(id), want.Status(id); g != w {
			t.Fatalf("%s: status of %s: recovered %s, twin %s", label, id, g, w)
		}
	}
	if g, w := fmt.Sprint(txnIDs(got.unpublished)), fmt.Sprint(txnIDs(want.unpublished)); g != w {
		t.Fatalf("%s: unpublished queue: recovered %s, twin %s", label, g, w)
	}
	if got.nextSeq != want.nextSeq || got.Epoch() != want.Epoch() {
		t.Fatalf("%s: recovered next_seq=%d epoch=%d, twin next_seq=%d epoch=%d",
			label, got.nextSeq, got.Epoch(), want.nextSeq, want.Epoch())
	}
}

func runDeltaSchedule(t *testing.T, seed int64, kinds *recoveryKinds) {
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	sys := openDeltaSystem(t, t.TempDir())
	defer func() { sys.db.Close() }()

	randomCommit := func(p *Peer) {
		tx := p.NewTransaction()
		for n := 1 + rng.Intn(3); n > 0; n-- {
			rels := p.Instance().Schema().Relations()
			rel := rels[rng.Intn(len(rels))]
			rows, _ := p.Instance().Rows(rel.Name)
			if len(rows) == 0 || rng.Intn(4) == 0 {
				tx.Insert(rel.Name, randomSmallTuple(rng, rel))
				continue
			}
			old := rows[rng.Intn(len(rows))].Tuple
			switch rng.Intn(3) {
			case 0:
				tx.Delete(rel.Name, old)
			case 1:
				tx.Modify(rel.Name, old, withNewValue(rng, rel, old))
			default: // identical re-insert: a second derivation of a stored row
				tx.Insert(rel.Name, old)
			}
		}
		if _, err := tx.Commit(); err != nil {
			var kv *storage.ErrKeyViolation
			if !errors.As(err, &kv) {
				t.Fatalf("commit at %s: %v", p.Name(), err)
			}
		}
	}

	deferred := make([][]updates.TxnID, len(deltaTopology.Names))
	// uncovered[i]: peer i has commits that neither a publish nor a
	// checkpoint has made durable yet — a kill would take them back.
	uncovered := make([]bool, len(deltaTopology.Names))
	// What the log held when the last fsynced operation returned: a crash
	// keeps at least this much, and may keep nothing after it. loose counts
	// the operations since then that logged without an fsync (commits and
	// reconciliation rounds).
	ackSeg, ackSize := activeWAL(t, sys.dir)
	loose := 0
	acked := func() { ackSeg, ackSize = activeWAL(t, sys.dir); loose = 0 }
	checkpointPeer := func(step, pi int) {
		p := sys.peers[pi]
		label := fmt.Sprintf("step %d: checkpoint of %s", step, p.Name())
		rows, rowsWritten, images := imageRows(t, sys.db, p.name), p.obsv.checkpointRows.Value(), p.obsv.blobWrites.Value()
		if err := p.SaveCheckpoint(sys.db); err != nil {
			t.Fatalf("step %d: checkpoint %s: %v", step, p.Name(), err)
		}
		uncovered[pi] = false
		acked()
		if p.obsv.blobWrites.Value() != images {
			requireImageEqualsInstance(t, label, sys.db, p)
			return
		}
		if got := imageRows(t, sys.db, p.name); !maps.Equal(got, rows) || p.obsv.checkpointRows.Value() != rowsWritten {
			t.Fatalf("%s: wrote no image, but rows changed (%d -> %d rows, %d -> %d written)",
				label, len(rows), len(got), rowsWritten, p.obsv.checkpointRows.Value())
		}
		sn := sys.db.Snapshot()
		defer sn.Close()
		requireQueueAndMeta(t, label, sn, p)
	}
	publishPeer := func(step, pi int) {
		if _, err := sys.peers[pi].Publish(ctx); err != nil {
			t.Fatalf("step %d: publish at %s: %v", step, sys.peers[pi].Name(), err)
		}
		uncovered[pi] = false
		acked()
	}

	for step := 0; step < 220; step++ {
		pi := rng.Intn(len(sys.peers))
		p := sys.peers[pi]
		switch op := rng.Intn(40); {
		case op < 14:
			randomCommit(p)
			uncovered[pi] = true
			loose++
			t.Logf("step %d: commit at %s -> next_seq %d", step, p.Name(), p.nextSeq)
		case op < 20:
			publishPeer(step, pi)
			t.Logf("step %d: publish at %s", step, p.Name())
		case op < 28:
			rep, err := p.Reconcile(ctx)
			t.Logf("step %d: reconcile at %s: %+v", step, p.Name(), rep)
			if err != nil {
				t.Fatalf("step %d: reconcile at %s: %v", step, p.Name(), err)
			}
			deferred[pi] = append(deferred[pi], rep.Deferred...)
			loose++
		case op < 31:
			for _, id := range deferred[pi] {
				if p.Status(id) == recon.StatusDeferred {
					// A winner that has meanwhile lost is refused, and then
					// nothing changed and nothing was archived.
					_, err := p.Resolve(ctx, id)
					t.Logf("step %d: resolve %s at %s: %v", step, id, p.Name(), err)
					if err == nil {
						acked()
					}
					break
				}
			}
		case op < 37:
			checkpointPeer(step, pi)
			t.Logf("step %d: checkpoint at %s (blob covers %d)", step, p.Name(), p.blobTxns)
		case op < 38:
			t.Logf("step %d: engine failure at %s", step, p.Name())
			// A failed Apply leaves the engine undefined: checkpoints go
			// without a blob until the next Reconcile rebuilds it.
			p.mu.Lock()
			p.engineDirty = true
			p.mu.Unlock()
		default:
			// Kill and reopen. Every peer but (sometimes) one first makes its
			// commits durable, by publishing or by checkpointing; the one that
			// does not commits once more, loses what it had not made durable,
			// and is not compared.
			volatile := -1
			if rng.Intn(2) == 0 {
				volatile = rng.Intn(len(sys.peers))
			}
			for i := range sys.peers {
				if i == volatile || !uncovered[i] {
					continue
				}
				if rng.Intn(2) == 0 {
					publishPeer(step, i)
				} else {
					checkpointPeer(step, i)
				}
			}
			tailIsVolatile := false
			if volatile >= 0 {
				tailIsVolatile = loose == 0
				randomCommit(sys.peers[volatile])
			}
			t.Logf("step %d: kill (volatile %d)", step, volatile)
			dst := t.TempDir()
			copyDirFiles(t, sys.dir, dst)
			// The copy holds everything written; a crash may also have lost
			// the unsynced tail of the log. The twins are only a fair oracle
			// for that when the tail is nothing but the record of the commit
			// the crash takes back.
			if seg, size := activeWAL(t, dst); tailIsVolatile && seg == ackSeg && ackSize < size && rng.Intn(2) == 0 {
				if err := os.Truncate(filepath.Join(dst, seg), ackSize); err != nil {
					t.Fatal(err)
				}
			}
			// The twins catch up with the archive, as recovery will.
			for _, q := range sys.peers {
				if _, err := q.Reconcile(ctx); err != nil {
					t.Fatalf("step %d: twin reconcile at %s: %v", step, q.Name(), err)
				}
			}
			next := openDeltaSystem(t, dst)
			head, err := next.store.Epoch()
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range next.peers {
				_, w, ok, err := EngineSnapshotStats(next.db, q.Name())
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case !ok:
					kinds.noImage++
				case w == head:
					kinds.atHead++
				default:
					kinds.behind++
				}
				if i != volatile {
					requireTwin(t, fmt.Sprintf("step %d: reopened %s", step, q.Name()), q, sys.peers[i])
				}
			}
			sys.db.Close()
			sys = next
			for i := range uncovered {
				uncovered[i] = false
			}
			acked()
		}
	}
	// A last checkpoint everywhere: every image, however many delta
	// checkpoints and reopenings deep, still equals its instance.
	for i := range sys.peers {
		checkpointPeer(220, i)
	}
}

// An accepted insert under a primary key that holds another tuple pushes
// that tuple out (storage.Upsert reports it as replaced); its row must go
// from the next image with it, though no update names it.
func TestCheckpointDeletesRowReplacedByUpsert(t *testing.T) {
	sys := openDeltaSystem(t, t.TempDir())
	defer sys.db.Close()
	p := sys.peers[0]
	commit(t, p.NewTransaction().Insert("O", workload.OTuple("fly", 1)))
	if err := p.SaveCheckpoint(sys.db); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	err := p.applyUpdates([]updates.Update{updates.Insert("O", workload.OTuple("rat", 1))})
	p.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	// The engine translating the published commit makes the next image due.
	publish(t, p)
	reconcile(t, p)
	if !blobRebaseDue(p.blobTxns, p.engine.AppliedCount()) {
		t.Fatalf("no image due: the blob covers %d transactions, the engine applied %d", p.blobTxns, p.engine.AppliedCount())
	}
	images := p.obsv.blobWrites.Value()
	if err := p.SaveCheckpoint(sys.db); err != nil {
		t.Fatal(err)
	}
	if p.obsv.blobWrites.Value() != images+1 {
		t.Fatal("the checkpoint wrote no image")
	}
	requireImageEqualsInstance(t, "after a key-replacing upsert", sys.db, p)
}
