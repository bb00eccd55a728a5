package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"orchestra/internal/provenance"
	"orchestra/internal/recon"
	"orchestra/internal/schema"
	"orchestra/internal/updates"
	"orchestra/internal/workload"
)

// engineBlobOf encodes p's engine snapshot exactly as SaveCheckpoint does.
func engineBlobOf(t testing.TB, p *Peer) []byte {
	t.Helper()
	eng, err := p.engine.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	return encodeEngineBlob(p.lastEpoch, eng, p.state.Save())
}

// engineBlobSeeds runs the conflict history of the resolve-crash tests over
// the Figure 2 CDSS and returns the blobs a checkpoint would write along it:
// an empty peer; Dresden holding the deferred pair, so transactions carry
// their updates and annotations; Crete, whose policy accepted one side and rejected
// the other; and Dresden after the resolve and a modify that depends on the
// loser, when every transaction is a skeleton again.
func engineBlobSeeds(t testing.TB) [][]byte {
	peers, _ := fig2(t)
	alaska, beijing := peers[workload.Alaska], peers[workload.Beijing]
	crete, dresden := peers[workload.Crete], peers[workload.Dresden]
	seeds := [][]byte{engineBlobOf(t, dresden)}

	bTxn := commit(t, beijing.NewTransaction().
		Insert("O", workload.OTuple("fly", 3)).
		Insert("P", workload.PTuple("tnf", 30)).
		Insert("S", workload.STuple(3, 30, "XXXX")))
	publish(t, beijing)
	commit(t, alaska.NewTransaction().
		Insert("O", workload.OTuple("fly", 3)).
		Insert("P", workload.PTuple("tnf", 30)).
		Insert("S", workload.STuple(3, 30, "YYYY")))
	publish(t, alaska)
	reconcile(t, dresden)
	reconcile(t, crete)
	if st := dresden.Status(bTxn.ID); st != recon.StatusDeferred {
		t.Fatalf("setup: beijing's transaction is %s at dresden, want deferred", st)
	}
	seeds = append(seeds, engineBlobOf(t, dresden), engineBlobOf(t, crete))

	if _, err := dresden.Resolve(context.Background(), bTxn.ID); err != nil {
		t.Fatal(err)
	}
	commit(t, beijing.NewTransaction().
		Modify("S", workload.STuple(3, 30, "XXXX"), workload.STuple(3, 30, "QQQQ")))
	publish(t, beijing)
	reconcile(t, dresden)
	return append(seeds, engineBlobOf(t, dresden))
}

// acceptedWithUpdates is a blob encodeEngineBlob never writes: an accepted
// transaction, which a blob stores as a skeleton, carrying an update.
func acceptedWithUpdates() []byte {
	b := binary.AppendUvarint([]byte(engineBlobMagic), 1) // watermark
	b = binary.AppendUvarint(b, 0)                        // no engine bytes
	b = binary.AppendUvarint(b, 1)                        // one transaction
	b = binary.AppendUvarint(b, uint64(recon.StatusAccepted))
	b = binary.AppendVarint(b, 1) // prio
	b = updates.AppendTxn(b, &updates.Transaction{
		ID:      updates.TxnID{Peer: "a", Seq: 1},
		Epoch:   1,
		Updates: []updates.Update{updates.Insert("R", schema.NewTuple(schema.String("x")))},
	})
	b = appendProv(b, provenance.NewVar("a#1.0"))
	return append(b, 0) // no writes
}

// sameEngineSnapshot compares two decoded blobs: tuples by canonical key
// (parsing canonicalizes them, so bytes may differ), provenance by Equal.
func sameEngineSnapshot(a, b *engineSnapshot) error {
	if a.Watermark != b.Watermark || !bytes.Equal(a.Engine, b.Engine) {
		return fmt.Errorf("watermark %d vs %d, or engine bytes differ", a.Watermark, b.Watermark)
	}
	if !reflect.DeepEqual(a.State.Writes, b.State.Writes) {
		return fmt.Errorf("accepted writes differ")
	}
	if len(a.State.Txns) != len(b.State.Txns) {
		return fmt.Errorf("%d vs %d transactions", len(a.State.Txns), len(b.State.Txns))
	}
	for i, x := range a.State.Txns {
		y := b.State.Txns[i]
		if x.Status != y.Status || x.Prio != y.Prio || x.Txn.ID != y.Txn.ID || x.Txn.Epoch != y.Txn.Epoch ||
			!reflect.DeepEqual(x.Txn.Deps, y.Txn.Deps) || len(x.Txn.Updates) != len(y.Txn.Updates) {
			return fmt.Errorf("transaction %d: %+v/%+v vs %+v/%+v", i, x, x.Txn, y, y.Txn)
		}
		for j, u := range x.Txn.Updates {
			v := y.Txn.Updates[j]
			if u.Rel != v.Rel || u.Op != v.Op || u.Old.Key() != v.Old.Key() ||
				u.New.Key() != v.New.Key() || !u.Prov.Equal(v.Prov) {
				return fmt.Errorf("transaction %d update %d: %+v vs %+v", i, j, u, v)
			}
		}
	}
	return nil
}

// FuzzDecodeEngineBlob: a peer's engine blob is read back on every
// recovery, so decodeEngineBlob must refuse any bytes with ErrBadEngineBlob
// (or errBlobVersion, for another layout's magic) or decode a snapshot that
// survives re-encoding.
func FuzzDecodeEngineBlob(f *testing.F) {
	seeds := engineBlobSeeds(f)
	for _, blob := range seeds {
		f.Add(blob)
	}
	f.Add(seeds[1][:len(seeds[1])/2])
	f.Add(acceptedWithUpdates())
	f.Add(append([]byte("OEB6"), seeds[1][len(engineBlobMagic):]...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, blob []byte) {
		snap, err := decodeEngineBlob(blob)
		if err != nil {
			if !errors.Is(err, ErrBadEngineBlob) && !errors.Is(err, errBlobVersion) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		again := encodeEngineBlob(snap.Watermark, snap.Engine, snap.State)
		back, err := decodeEngineBlob(again)
		if err != nil {
			t.Fatalf("decodeEngineBlob refuses its own re-encoding: %v\n%q", err, again)
		}
		if err := sameEngineSnapshot(snap, back); err != nil {
			t.Fatalf("re-encoding changed the snapshot: %v", err)
		}
	})
}
