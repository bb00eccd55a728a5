package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"

	"orchestra/internal/codec"
	"orchestra/internal/datalog"
	"orchestra/internal/exchange"
	"orchestra/internal/lsm"
	"orchestra/internal/p2p"
	"orchestra/internal/provenance"
	"orchestra/internal/recon"
	"orchestra/internal/schema"
	"orchestra/internal/updates"
	"orchestra/internal/workload"
)

// overlong re-spells the varint at b[at:] one byte longer — the same
// number with a continuation bit and a zero byte — which no writer
// produces.
func overlong(b []byte, at int) []byte {
	_, n := binary.Uvarint(b[at:])
	out := append([]byte(nil), b[:at+n-1]...)
	out = append(out, b[at+n-1]|0x80, 0)
	return append(out, b[at+n:]...)
}

// TestDurableValuesRefuseHostileBytes: every durable value a peer or the
// archive writes, spelled with an overlong varint or followed by a trailing
// byte, fails with its format's sentinel, while the value as written
// decodes.
func TestDurableValuesRefuseHostileBytes(t *testing.T) {
	db, ds := openDurableTier(t, t.TempDir())
	defer db.Close()
	sys, err := NewSystem(workload.Figure2Peers(), workload.Figure2Mappings())
	if err != nil {
		t.Fatal(err)
	}
	alaska := durablePeer(t, workload.Alaska, sys, ds, recon.TrustAll(1), db)
	commit(t, alaska.NewTransaction().Insert("O", workload.OTuple("mouse", 1)))
	publish(t, alaska)
	reconcile(t, alaska)
	checkpoint(t, alaska, db) // the image
	// A commit after the image: a queue entry and a journal record, which
	// the next checkpoint (no image due) keeps.
	commit(t, alaska.NewTransaction().Insert("O", workload.OTuple("yeast", 2)))
	checkpoint(t, alaska, db)

	stored := func(key []byte) []byte {
		t.Helper()
		v, ok, err := db.Get(key)
		if err != nil || !ok {
			t.Fatalf("no value at %q: ok=%v err=%v", key, ok, err)
		}
		return v
	}
	first := func(prefix []byte) (k, v []byte) {
		t.Helper()
		sn := db.Snapshot()
		defer sn.Close()
		if err := sn.Scan(prefix, lsm.PrefixEnd(prefix), func(key, val []byte) bool {
			k, v = append([]byte(nil), key...), append([]byte(nil), val...)
			return false
		}); err != nil || k == nil {
			t.Fatalf("nothing under %q: %v", prefix, err)
		}
		return k, v
	}
	blob := stored(ekKey(workload.Alaska))
	state, err := alaska.engine.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := NewPeer(workload.Alaska, sys, ds, recon.TrustAll(1))
	if err != nil {
		t.Fatal(err)
	}
	archKey, archived := first([]byte("a/t/"))

	for _, c := range []struct {
		name   string
		value  []byte
		varint int // offset of a varint in value
		decode func([]byte) error
		bad    error
	}{
		{"engine blob", blob, len(engineBlobMagic), func(b []byte) error {
			_, err := decodeImage(scratch, b)
			return err
		}, ErrBadEngineBlob},
		{"engine state", state, 4, scratch.engine.LoadState, exchange.ErrBadState},
		{"archived transaction", archived, 0, func(b []byte) error {
			if err := db.Put(archKey, b, false); err != nil {
				return err
			}
			_, _, err := ds.Since(0)
			return err
		}, p2p.ErrBadWire},
		{"queue entry", stored(ckUnpubKey(workload.Alaska, 0)), 0, func(b []byte) error {
			_, err := decodeQueued(b)
			return err
		}, ErrBadEngineBlob},
		{"meta record", stored(ckMetaKey(workload.Alaska)), 0, func(b []byte) error {
			_, err := decodeMeta(b)
			return err
		}, ErrBadEngineBlob},
		{"journal record", stored(rkKey(workload.Alaska, 0)), 0, func(b []byte) error {
			_, err := decodeEvent(b)
			return err
		}, ErrBadEngineBlob},
	} {
		if err := c.decode(c.value); err != nil {
			t.Fatalf("%s as written: %v", c.name, err)
		}
		for what, b := range map[string][]byte{
			"overlong varint": overlong(c.value, c.varint),
			"trailing byte":   append(append([]byte(nil), c.value...), 0),
		} {
			if err := c.decode(b); !errors.Is(err, c.bad) {
				t.Errorf("%s with an %s: %v, want %v", c.name, what, err, c.bad)
			}
		}
	}
}

// withInstance returns blob, an image of a peer of sys's peer, with inst's
// datalog.AppendDB section in place of its instance section.
func withInstance(t *testing.T, sys *System, peer string, blob []byte, inst *datalog.DB) []byte {
	t.Helper()
	r, err := openEngineBlob(blob)
	if err != nil {
		t.Fatal(err)
	}
	r.Uvarint() // watermark
	eng, err := exchange.NewEngineWith(sys.Peers(), sys.Mappings(), exchange.Config{Owner: peer})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ReadState(r); err != nil {
		t.Fatal(err)
	}
	start := len(blob) - r.Len()
	if datalog.SkimDB(r); r.Err() != nil {
		t.Fatal(r.Err())
	}
	out := datalog.AppendDB(slices.Clone(blob[:start]), inst)
	return append(out, blob[len(blob)-r.Len():]...)
}

// TestRecoverRefusesHostileInstance: an image whose instance section holds
// what no instance of the peer's schema can — a relation the schema does not
// declare, a tuple of the wrong arity or of the wrong type, two tuples under
// one primary key — or that is followed by trailing bytes fails recovery
// with ErrBadEngineBlob, while the image as written restores.
func TestRecoverRefusesHostileInstance(t *testing.T) {
	db, ds := openDurableTier(t, t.TempDir())
	defer db.Close()
	sys, err := NewSystem(workload.Figure2Peers(), workload.Figure2Mappings())
	if err != nil {
		t.Fatal(err)
	}
	dresden := durablePeer(t, workload.Dresden, sys, ds, recon.TrustAll(1), db)
	commit(t, dresden.NewTransaction().Insert("OPS", workload.OPSTuple("rat", "brca1", "TTTT")))
	checkpoint(t, dresden, db)
	blob, ok, err := db.Get(ekKey(workload.Dresden))
	if err != nil || !ok {
		t.Fatalf("no image: ok=%v err=%v", ok, err)
	}
	instance := func(rel string, rows ...schema.Tuple) []byte {
		inst := datalog.NewDB()
		for _, tu := range rows {
			inst.Set(rel, tu, provenance.One())
		}
		return withInstance(t, sys, workload.Dresden, blob, inst)
	}
	str := schema.String
	for _, c := range []struct {
		name string
		blob []byte
		ok   bool
	}{
		{"as written", blob, true},
		{"spliced as written", instance("OPS", workload.OPSTuple("rat", "brca1", "TTTT")), true},
		{"undeclared relation", instance("O", workload.OTuple("rat", 1)), false},
		{"wrong arity", instance("OPS", schema.NewTuple(str("rat"), str("brca1"))), false},
		{"wrong type", instance("OPS", schema.NewTuple(str("rat"), str("brca1"), schema.Int(7))), false},
		{"duplicate primary key", instance("OPS",
			workload.OPSTuple("rat", "brca1", "TTTT"), workload.OPSTuple("rat", "brca1", "GGGG")), false},
		{"trailing bytes", append(slices.Clone(blob), 0), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := db.Put(ekKey(workload.Dresden), c.blob, true); err != nil {
				t.Fatal(err)
			}
			_, err := RecoverPeerWith(context.Background(), workload.Dresden, sys, ds, recon.TrustAll(1), exchange.Config{}, db)
			switch {
			case c.ok && err != nil:
				t.Fatalf("recovery refused the image: %v", err)
			case !c.ok && !errors.Is(err, ErrBadEngineBlob):
				t.Fatalf("recovery = %v, want ErrBadEngineBlob", err)
			}
		})
	}
}

// trustEntry is one transaction of a hand-assembled trust section: its
// status code, the transaction, and the table index of each update's
// annotation.
type trustEntry struct {
	status uint64
	txn    *updates.Transaction
	refs   []int
}

// trustSection assembles a trust section by hand: the polynomial table of
// annots, one entry per transaction at priority 1, and an accepted write
// under each key.
func trustSection(annots []provenance.Poly, entries []trustEntry, keys ...string) []byte {
	w := provenance.NewTableWriter(len(annots))
	for _, p := range annots {
		w.Index(p)
	}
	b := w.AppendTable(nil)
	b = binary.AppendUvarint(b, uint64(len(entries)))
	for _, e := range entries {
		b = binary.AppendUvarint(b, e.status)
		b = binary.AppendVarint(b, 1)
		b = updates.AppendTxn(b, e.txn)
		for _, i := range e.refs {
			b = binary.AppendUvarint(b, uint64(i))
		}
	}
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = codec.AppendString(b, k)
		b = codec.AppendString(b, workload.Alaska)
		b = binary.AppendUvarint(b, 2)
		b = append(b, 0) // not deleted
		b = codec.AppendString(b, workload.OPSTuple("rat", "brca1", "TTTT").Key())
	}
	return b
}

// withTrust returns p's image with trust in place of its trust section,
// which is the image's last.
func withTrust(p *Peer, trust []byte) []byte {
	img := p.appendImage(nil)
	head := len(img) - len(p.state.AppendState(nil))
	return append(img[:head:head], trust...)
}

// hostileSection is a trust section AppendState never writes, named by
// the one rule it breaks.
type hostileSection struct {
	name    string
	section []byte
}

// trustSections returns a hand-assembled trust section that ReadState
// accepts — a pending transaction with two annotated updates and an
// accepted skeleton — and hostile variations of that assembly.
func trustSections() (valid []byte, hostile []hostileSection) {
	x, y := provenance.NewVar("alaska#1.0"), provenance.NewVar("alaska#1.1")
	txn := func(seq uint64, nUpdates int) *updates.Transaction {
		t := &updates.Transaction{ID: updates.TxnID{Peer: workload.Alaska, Seq: seq}, Epoch: 1}
		for i := range nUpdates {
			t.Updates = append(t.Updates, updates.Insert("OPS", workload.OPSTuple("rat", fmt.Sprint(i), "TTTT")))
		}
		return t
	}
	pending, accepted := uint64(recon.StatusPending), uint64(recon.StatusAccepted)
	open := trustEntry{pending, txn(1, 2), []int{0, 1}}
	closed := trustEntry{accepted, txn(2, 0), nil}
	valid = trustSection([]provenance.Poly{x, y}, []trustEntry{open, closed}, "OPS/a", "OPS/b")
	return valid, []hostileSection{
		{"unknown status", trustSection(nil, []trustEntry{{9, txn(1, 0), nil}})},
		{"status 0", trustSection(nil, []trustEntry{{0, txn(1, 0), nil}})},
		{"updates on an accepted node", trustSection([]provenance.Poly{x}, []trustEntry{{accepted, txn(1, 1), []int{0}}})},
		{"one id twice", trustSection(nil, []trustEntry{{pending, txn(1, 0), nil}, {pending, txn(1, 0), nil}})},
		{"ids out of order", trustSection(nil, []trustEntry{closed, {pending, txn(1, 0), nil}})},
		{"index past the table", trustSection([]provenance.Poly{x}, []trustEntry{{pending, txn(1, 2), []int{0, 1}}})},
		{"index out of first-reference order", trustSection([]provenance.Poly{x, y}, []trustEntry{{pending, txn(1, 2), []int{1, 0}}})},
		{"unreferenced table entry", trustSection([]provenance.Poly{x, y}, []trustEntry{{pending, txn(1, 1), []int{0}}})},
		{"writes out of key order", trustSection([]provenance.Poly{x, y}, []trustEntry{open, closed}, "OPS/b", "OPS/a")},
		{"trailing bytes", append(slices.Clone(valid), 0)},
		// An open transaction's updates must fit the peer's schema, as a
		// commit's must.
		{"update of the wrong arity", trustSection([]provenance.Poly{x}, []trustEntry{{uint64(recon.StatusDeferred),
			withUpdate(txn(1, 0), updates.Insert("OPS", schema.NewTuple(schema.String("rat")))), []int{0}}})},
		{"update of the wrong type", trustSection([]provenance.Poly{x}, []trustEntry{{pending,
			withUpdate(txn(1, 0), updates.Insert("OPS", schema.NewTuple(schema.String("rat"), schema.Int(1), schema.String("TTTT")))), []int{0}}})},
		{"update on an undeclared relation", trustSection([]provenance.Poly{x}, []trustEntry{{pending,
			withUpdate(txn(1, 0), updates.Insert("Nope", workload.OPSTuple("rat", "brca1", "TTTT"))), []int{0}}})},
	}
}

// withUpdate appends u to t's updates and returns t.
func withUpdate(t *updates.Transaction, u updates.Update) *updates.Transaction {
	t.Updates = append(t.Updates, u)
	return t
}

// TestRecoverRefusesHostileTrustState: an image whose trust section breaks
// a rule AppendState keeps — an unknown status, updates on a closed node,
// an id twice or out of order, an annotation index past the table or out
// of first-reference order, a table entry nothing references, writes out
// of key order, trailing bytes, an open update the peer's schema could not
// hold — fails recovery with ErrBadEngineBlob, while the image as written
// and the canonical hand assembly restore.
func TestRecoverRefusesHostileTrustState(t *testing.T) {
	db, ds := openDurableTier(t, t.TempDir())
	defer db.Close()
	sys, err := NewSystem(workload.Figure2Peers(), workload.Figure2Mappings())
	if err != nil {
		t.Fatal(err)
	}
	dresden := durablePeer(t, workload.Dresden, sys, ds, recon.TrustAll(1), db)
	commit(t, dresden.NewTransaction().Insert("OPS", workload.OPSTuple("rat", "brca1", "TTTT")))
	checkpoint(t, dresden, db)
	blob, ok, err := db.Get(ekKey(workload.Dresden))
	if err != nil || !ok {
		t.Fatalf("no image: ok=%v err=%v", ok, err)
	}
	if spliced := withTrust(dresden, dresden.state.AppendState(nil)); !bytes.Equal(spliced, blob) {
		t.Fatal("the image as spliced differs from the image as written")
	}
	recoverImage := func(blob []byte) (*Peer, error) {
		if err := db.Put(ekKey(workload.Dresden), blob, true); err != nil {
			t.Fatal(err)
		}
		return RecoverPeerWith(context.Background(), workload.Dresden, sys, ds, recon.TrustAll(1), exchange.Config{}, db)
	}
	valid, hostile := trustSections()
	t.Run("as written", func(t *testing.T) {
		if _, err := recoverImage(blob); err != nil {
			t.Fatalf("recovery refused the image: %v", err)
		}
	})
	t.Run("assembled", func(t *testing.T) {
		p, err := recoverImage(withTrust(dresden, valid))
		if err != nil {
			t.Fatalf("recovery refused the image: %v", err)
		}
		if st := p.Status(updates.TxnID{Peer: workload.Alaska, Seq: 1}); st != recon.StatusPending {
			t.Fatalf("the assembled pending transaction is %s after recovery", st)
		}
	})
	for _, c := range hostile {
		t.Run(c.name, func(t *testing.T) {
			if _, err := recoverImage(withTrust(dresden, c.section)); !errors.Is(err, ErrBadEngineBlob) {
				t.Fatalf("recovery = %v, want ErrBadEngineBlob", err)
			}
		})
	}
}
