package core

import (
	"encoding/binary"
	"errors"
	"testing"

	"orchestra/internal/exchange"
	"orchestra/internal/lsm"
	"orchestra/internal/p2p"
	"orchestra/internal/recon"
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
	checkpoint(t, alaska, db) // the image: blob and rows
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
	snap, err := decodeEngineBlob(blob)
	if err != nil {
		t.Fatal(err)
	}
	_, row := first(ckRowPrefix(workload.Alaska))
	archKey, archived := first([]byte("a/t/"))
	var pd provDecoder

	for _, c := range []struct {
		name   string
		value  []byte
		varint int // offset of a varint in value
		decode func([]byte) error
		bad    error
	}{
		{"engine blob", blob, len(engineBlobMagic), func(b []byte) error {
			_, err := decodeEngineBlob(b)
			return err
		}, ErrBadEngineBlob},
		{"engine state", snap.Engine, 4, alaska.engine.LoadState, exchange.ErrBadState},
		{"c/ row", row, 0, func(b []byte) error {
			_, err := pd.decode(b)
			return err
		}, ErrBadProv},
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
