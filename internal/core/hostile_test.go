package core

import (
	"context"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"orchestra/internal/datalog"
	"orchestra/internal/exchange"
	"orchestra/internal/lsm"
	"orchestra/internal/p2p"
	"orchestra/internal/provenance"
	"orchestra/internal/recon"
	"orchestra/internal/schema"
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
