package p2p

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"orchestra/internal/schema"
	"orchestra/internal/updates"
)

func tup(vs ...string) schema.Tuple {
	out := make(schema.Tuple, len(vs))
	for i, v := range vs {
		out[i] = schema.String(v)
	}
	return out
}

func txn(peer string, seq uint64, us ...updates.Update) *updates.Transaction {
	return &updates.Transaction{ID: updates.TxnID{Peer: peer, Seq: seq}, Updates: us}
}

func TestMemoryStorePublishSince(t *testing.T) {
	s := NewMemoryStore()
	e0, err := s.Epoch()
	if err != nil || e0 != 0 {
		t.Fatalf("initial epoch = %d, %v", e0, err)
	}
	t1 := txn("a", 1, updates.Insert("R", tup("x")))
	t2 := txn("a", 2, updates.Insert("R", tup("y")))
	e1, err := s.Publish([]*updates.Transaction{t1})
	if err != nil || e1 != 1 {
		t.Fatalf("publish 1: epoch=%d err=%v", e1, err)
	}
	e2, err := s.Publish([]*updates.Transaction{t2})
	if err != nil || e2 != 2 {
		t.Fatalf("publish 2: epoch=%d err=%v", e2, err)
	}
	if t1.Epoch != 1 || t2.Epoch != 2 {
		t.Errorf("epochs not stamped: %d %d", t1.Epoch, t2.Epoch)
	}
	all, cur, err := s.Since(0)
	if err != nil || len(all) != 2 || cur != 2 {
		t.Fatalf("Since(0) = %v, %d, %v", all, cur, err)
	}
	tail, _, err := s.Since(1)
	if err != nil || len(tail) != 1 || tail[0].ID != t2.ID {
		t.Fatalf("Since(1) = %v, %v", tail, err)
	}
	none, _, err := s.Since(2)
	if err != nil || len(none) != 0 {
		t.Fatalf("Since(2) = %v", none)
	}
	if n := archived(t, s); n != 2 {
		t.Errorf("archived %d transactions, want 2", n)
	}
}

// TestMemoryStoreSinceSeeks: Since answers from the epoch-ordered log's tail.
// After any interleaving of Publish and anti-entropy merges (which splice
// another replica's epochs in between this one's) it must return what the
// linear filter over the whole log returns, for every epoch, and hand out a
// slice that does not alias the log.
func TestMemoryStoreSinceSeeks(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	a, b := NewMemoryStore(), NewMemoryStore()
	seq := map[*MemoryStore]uint64{}
	for step := 0; step < 200; step++ {
		s, peer := a, "a"
		if rng.Intn(2) == 0 {
			s, peer = b, "b"
		}
		if rng.Intn(5) == 0 {
			AntiEntropy(a, b)
		} else {
			var batch []*updates.Transaction
			for n := 1 + rng.Intn(3); n > 0; n-- {
				seq[s]++
				batch = append(batch, txn(peer, seq[s], updates.Insert("R", tup("x"))))
			}
			if _, err := s.Publish(batch); err != nil {
				t.Fatal(err)
			}
		}
		for _, s := range []*MemoryStore{a, b} {
			for since := uint64(0); since <= s.epoch+1; since++ {
				var want []*updates.Transaction
				for _, tx := range s.log {
					if tx.Epoch > since {
						want = append(want, tx)
					}
				}
				got, epoch, err := s.Since(since)
				if err != nil || epoch != s.epoch || !slices.Equal(got, want) {
					t.Fatalf("step %d: Since(%d) = %v, %d, %v; the log holds %v", step, since, got, epoch, err, want)
				}
				if len(got) > 0 {
					got[0] = nil
					if s.log[len(s.log)-len(got)] == nil {
						t.Fatalf("step %d: Since(%d) aliases the log", step, since)
					}
				}
			}
		}
	}
}

// forEachStore runs the test against every way a peer reaches an archive:
// in process, on the durable tier, and through a client to a served store
// of either kind (what `orchestra serve` and `serve -durable` run).
// archived counts the transactions s holds.
func archived(t *testing.T, s Store) int {
	t.Helper()
	txns, _, err := s.Since(0)
	if err != nil {
		t.Fatal(err)
	}
	return len(txns)
}

func forEachStore(t *testing.T, test func(t *testing.T, s Store)) {
	t.Run("memory", func(t *testing.T) { test(t, NewMemoryStore()) })
	t.Run("replicated", func(t *testing.T) { test(t, NewReplicatedStore(NewMemoryStore())) })
	t.Run("durable", func(t *testing.T) {
		db, ds := openDurable(t, t.TempDir())
		defer db.Close()
		test(t, ds)
	})
	serve := func(t *testing.T, backing Store) {
		srv, err := NewServer(backing, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		test(t, NewClient(srv.Addr()))
	}
	t.Run("client-server", func(t *testing.T) { serve(t, NewMemoryStore()) })
	t.Run("client-durable-server", func(t *testing.T) {
		db, ds := openDurable(t, t.TempDir())
		defer db.Close()
		serve(t, ds)
	})
}

// A transaction id is archived at most once, whether the second copy comes
// in a later batch or in the same one; a rejected batch leaves no trace. (A
// store that archived [t, t] would fail every reconciler's ApplyAll with
// ErrAlreadyApplied on each round, forever.)
func TestStoreRejectsDuplicatePublish(t *testing.T) {
	forEachStore(t, func(t *testing.T, s Store) {
		if _, err := s.Publish([]*updates.Transaction{txn("a", 1, updates.Insert("R", tup("x")))}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Publish([]*updates.Transaction{txn("a", 1, updates.Insert("R", tup("z")))}); !errors.Is(err, ErrAlreadyPublished) {
			t.Errorf("duplicate of an archived transaction: %v", err)
		}
		twice := []*updates.Transaction{
			txn("b", 1, updates.Insert("R", tup("y"))),
			txn("c", 1, updates.Insert("R", tup("w"))),
			txn("b", 1, updates.Insert("R", tup("y"))),
		}
		if _, err := s.Publish(twice); !errors.Is(err, ErrAlreadyPublished) {
			t.Errorf("duplicate within one batch: %v", err)
		}
		got, epoch, err := s.Since(0)
		if err != nil || len(got) != 1 || epoch != 1 {
			t.Fatalf("after two rejected batches: %d transactions at epoch %d, %v; want 1 at 1", len(got), epoch, err)
		}
		// Nothing of the rejected batch was remembered either.
		if e, err := s.Publish(twice[:2]); err != nil || e != 2 {
			t.Errorf("publishing the batch without its duplicate: epoch %d, %v", e, err)
		}
		// Empty publish does not advance the epoch.
		if e, err := s.Publish(nil); err != nil || e != 2 {
			t.Errorf("empty publish: epoch=%d err=%v", e, err)
		}
	})
}

func TestWireRoundTrip(t *testing.T) {
	orig := &updates.Transaction{
		ID:    updates.TxnID{Peer: "beijing", Seq: 7},
		Epoch: 3,
		Updates: []updates.Update{
			updates.Insert("S", schema.NewTuple(schema.Int(1), schema.Int(2), schema.String("AC|GT"))),
			updates.Delete("O", schema.NewTuple(schema.String("mouse"), schema.Int(1))),
			updates.Modify("P", schema.NewTuple(schema.String("p53"), schema.Int(9)),
				schema.NewTuple(schema.String("p53"), schema.Int(10))),
		},
		Deps: []updates.TxnID{{Peer: "alaska", Seq: 1}, {Peer: "crete", Seq: 2}},
	}
	got, err := DecodeTxn(EncodeTxn(orig))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != orig.ID || got.Epoch != orig.Epoch || len(got.Updates) != 3 || len(got.Deps) != 2 {
		t.Fatalf("round trip = %+v", got)
	}
	for i := range orig.Updates {
		if got.Updates[i].Op != orig.Updates[i].Op {
			t.Errorf("update %d op mismatch", i)
		}
		if orig.Updates[i].Old != nil && !got.Updates[i].Old.Equal(orig.Updates[i].Old) {
			t.Errorf("update %d old mismatch", i)
		}
		if orig.Updates[i].New != nil && !got.Updates[i].New.Equal(orig.Updates[i].New) {
			t.Errorf("update %d new mismatch", i)
		}
	}
	if got.Deps[0] != orig.Deps[0] || got.Deps[1] != orig.Deps[1] {
		t.Error("deps mismatch")
	}
	// Labeled nulls survive the wire too.
	withNull := txn("crete", 1, updates.Insert("O",
		schema.NewTuple(schema.String("fly"), schema.LabeledNull("sk_M_CA_oid(s:fly)"))))
	got2, err := DecodeTxn(EncodeTxn(withNull))
	if err != nil {
		t.Fatal(err)
	}
	if !got2.Updates[0].New[1].IsLabeledNull() {
		t.Error("labeled null lost on the wire")
	}
	// Malformed wire data is rejected, with every failure wrapping the
	// ErrBadWire sentinel so errors.Is dispatches through decode failures.
	for name, w := range map[string]WireTxn{
		"bad op":        {Peer: "x", Updates: []WireUpdate{{Rel: "R", Op: 9}}},
		"bad new tuple": {Peer: "x", Updates: []WireUpdate{{Rel: "R", Op: 0, New: "zz"}}},
		"bad old tuple": {Peer: "x", Updates: []WireUpdate{{Rel: "R", Op: 1, Old: "zz"}}},
		"bad dep":       {Peer: "x", Deps: []string{"nocolon"}},
		// A padded or wrapping seq would name a real transaction under a
		// second string.
		"padded dep seq":   {Peer: "x", Deps: []string{"a:007"}},
		"wrapping dep seq": {Peer: "x", Deps: []string{"a:18446744073709551623"}},
	} {
		if _, err := DecodeTxn(w); !errors.Is(err, ErrBadWire) {
			t.Errorf("%s: err = %v, want ErrBadWire", name, err)
		}
	}
}

func TestServerClientEndToEnd(t *testing.T) {
	srv, err := NewServer(NewMemoryStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(srv.Addr())

	t1 := txn("a", 1, updates.Insert("R", tup("x")))
	epoch, err := c.Publish([]*updates.Transaction{t1})
	if err != nil || epoch != 1 {
		t.Fatalf("publish: %d %v", epoch, err)
	}
	if t1.Epoch != 1 {
		t.Errorf("client did not stamp epoch: %d", t1.Epoch)
	}
	got, cur, err := c.Since(0)
	if err != nil || len(got) != 1 || cur != 1 {
		t.Fatalf("since: %v %d %v", got, cur, err)
	}
	if got[0].ID != t1.ID || !got[0].Updates[0].New.Equal(tup("x")) {
		t.Errorf("got %+v", got[0])
	}
	e, err := c.Epoch()
	if err != nil || e != 1 {
		t.Errorf("epoch: %d %v", e, err)
	}
	// Duplicate publish over the wire errors.
	if _, err := c.Publish([]*updates.Transaction{t1}); err == nil ||
		!strings.Contains(err.Error(), "already published") {
		t.Errorf("duplicate: %v", err)
	}
}

func TestClientUnreachable(t *testing.T) {
	c := NewClient("127.0.0.1:1") // nothing listens there
	if _, err := c.Epoch(); err == nil {
		t.Error("unreachable server produced no error")
	}
}

// TestOfflinePublisherScenario is demo scenario 5 at the transport level:
// Beijing publishes to the replicated store and goes offline; Alaska can
// still retrieve Beijing's transactions from a surviving replica.
func TestOfflinePublisherScenario(t *testing.T) {
	srv1, err := NewServer(NewMemoryStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := NewServer(NewMemoryStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	beijing := NewReplicatedStore(NewClient(srv1.Addr()), NewClient(srv2.Addr()))
	tb := txn("beijing", 1, updates.Insert("S", tup("seq1")))
	if _, err := beijing.Publish([]*updates.Transaction{tb}); err != nil {
		t.Fatal(err)
	}
	// Replica 1 dies; "Beijing goes offline" too (its client is gone).
	srv1.Close()

	alaska := NewReplicatedStore(NewClient(srv1.Addr()), NewClient(srv2.Addr()))
	got, epoch, err := alaska.Since(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != tb.ID || epoch != 1 {
		t.Errorf("retrieved %v at epoch %d", got, epoch)
	}
}

func TestReplicatedStoreAllDown(t *testing.T) {
	r := NewReplicatedStore(NewClient("127.0.0.1:1"))
	if _, err := r.Epoch(); err == nil {
		t.Error("no error with all replicas down")
	}
	if _, _, err := r.Since(0); err == nil {
		t.Error("no error with all replicas down")
	}
	if _, err := r.Publish([]*updates.Transaction{txn("a", 1)}); err == nil {
		t.Error("no error with all replicas down")
	}
}

// TestReplicasKeepTheirOwnEpochs: two in-process replicas archive one
// published transaction at different epochs, and each keeps its own, while
// the caller's transaction carries the epoch of the replica that took it
// last.
func TestReplicasKeepTheirOwnEpochs(t *testing.T) {
	a, b := NewMemoryStore(), NewMemoryStore()
	if _, err := b.Publish([]*updates.Transaction{txn("b", 1)}); err != nil {
		t.Fatal(err)
	}
	shared := txn("a", 1, updates.Insert("R", tup("x")))
	if _, err := NewReplicatedStore(a, b).Publish([]*updates.Transaction{shared}); err != nil {
		t.Fatal(err)
	}
	if shared.Epoch != 2 {
		t.Errorf("caller's transaction at epoch %d, want 2 (b's)", shared.Epoch)
	}
	for _, c := range []struct {
		name  string
		store *MemoryStore
		epoch uint64
	}{{"a", a, 1}, {"b", b, 2}} {
		txns, _, err := c.store.Since(0)
		if err != nil {
			t.Fatal(err)
		}
		i := slices.IndexFunc(txns, func(x *updates.Transaction) bool { return x.ID == shared.ID })
		if i < 0 || txns[i].Epoch != c.epoch {
			t.Errorf("replica %s archived %v, want %s at epoch %d", c.name, txns, shared.ID, c.epoch)
		}
	}
}

func TestAntiEntropy(t *testing.T) {
	a, b := NewMemoryStore(), NewMemoryStore()
	ta := txn("a", 1, updates.Insert("R", tup("x")))
	tb := txn("b", 1, updates.Insert("R", tup("y")))
	if _, err := a.Publish([]*updates.Transaction{ta}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Publish([]*updates.Transaction{tb}); err != nil {
		t.Fatal(err)
	}
	AntiEntropy(a, b)
	at, ae, _ := a.Since(0)
	bt, be, _ := b.Since(0)
	if len(at) != 2 || len(bt) != 2 {
		t.Errorf("after anti-entropy: a=%d b=%d", len(at), len(bt))
	}
	if ae != be {
		t.Errorf("epochs diverge: %d vs %d", ae, be)
	}
	// Idempotent.
	AntiEntropy(a, b)
	at2, _, _ := a.Since(0)
	if len(at2) != 2 {
		t.Errorf("anti-entropy not idempotent: %d", len(at2))
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, err := NewServer(NewMemoryStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			c := NewClient(srv.Addr())
			for i := 0; i < 10; i++ {
				tx := txn("peer", uint64(g*100+i+1), updates.Insert("R", tup("v")))
				if _, err := c.Publish([]*updates.Transaction{tx}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	all, epoch, err := NewClient(srv.Addr()).Since(0)
	if err != nil || len(all) != 80 || epoch != 80 {
		t.Errorf("final: %d txns at epoch %d, err %v", len(all), epoch, err)
	}
}
