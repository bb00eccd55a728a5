package core

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"orchestra/internal/provenance"
	"orchestra/internal/recon"
	"orchestra/internal/schema"
	"orchestra/internal/updates"
	"orchestra/internal/workload"
)

// engineBlobOf encodes p's image exactly as SaveCheckpoint does.
func engineBlobOf(p *Peer) []byte { return p.appendImage(nil) }

// decodeImage restores p from an engine blob and returns its watermark.
func decodeImage(p *Peer, blob []byte) (uint64, error) {
	r, err := openEngineBlob(blob)
	if err != nil {
		return 0, err
	}
	return p.readImage(r)
}

// engineBlobSeeds runs the conflict history of the resolve-crash tests over
// the Figure 2 CDSS and returns the blobs a checkpoint would write along it:
// an empty peer; Dresden holding the deferred pair, so transactions carry
// their updates and annotations; Crete, whose policy accepted one side and
// rejected the other, so its instance section holds that side's rows; and
// Dresden after the resolve and a modify that depends on the loser, when
// every transaction is a skeleton again and the instance holds the
// winner's modified row. Crete and Dresden share a schema, so any of the
// blobs restores into a Dresden peer.
func engineBlobSeeds(t testing.TB) [][]byte {
	peers, _ := fig2(t)
	alaska, beijing := peers[workload.Alaska], peers[workload.Beijing]
	crete, dresden := peers[workload.Crete], peers[workload.Dresden]
	seeds := [][]byte{engineBlobOf(dresden)}

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
	seeds = append(seeds, engineBlobOf(dresden), engineBlobOf(crete))

	if _, err := dresden.Resolve(context.Background(), bTxn.ID); err != nil {
		t.Fatal(err)
	}
	commit(t, beijing.NewTransaction().
		Modify("S", workload.STuple(3, 30, "XXXX"), workload.STuple(3, 30, "QQQQ")))
	publish(t, beijing)
	reconcile(t, dresden)
	return append(seeds, engineBlobOf(dresden))
}

// FuzzDecodeEngineBlob: a peer's engine blob is read back on every
// recovery, so readImage must refuse any bytes with ErrBadEngineBlob (or
// errBlobVersion, for another layout's magic) or restore a peer whose image
// restores again and re-encodes to the same bytes.
func FuzzDecodeEngineBlob(f *testing.F) {
	seeds := engineBlobSeeds(f)
	for _, blob := range seeds {
		f.Add(blob)
	}
	first, _ := fig2(f)
	second, _ := fig2(f)
	got, back := first[workload.Dresden], second[workload.Dresden]
	f.Add(seeds[1][:len(seeds[1])/2])
	valid, hostile := trustSections()
	f.Add(withTrust(got, valid))
	for _, c := range hostile {
		f.Add(withTrust(got, c.section))
	}
	// A deferred update whose tuple no relation of the schema can hold,
	// which restoring refuses before it keys the tuple to index the
	// deferred writes.
	short := &updates.Transaction{ID: updates.TxnID{Peer: workload.Alaska, Seq: 1}, Epoch: 1,
		Updates: []updates.Update{updates.Insert("OPS", schema.NewTuple(schema.String("rat")))}}
	f.Add(withTrust(got, trustSection([]provenance.Poly{provenance.One()},
		[]trustEntry{{uint64(recon.StatusDeferred), short, []int{0}}})))
	f.Add(append([]byte("OEB7"), seeds[1][len(engineBlobMagic):]...))
	f.Add([]byte{})
	f.Add(seeds[3][:len(seeds[3])-3])
	// Restoring replaces a peer's engine, instance and trust state, so two
	// peers serve every input.
	f.Fuzz(func(t *testing.T, blob []byte) {
		w, err := decodeImage(got, blob)
		if err != nil {
			if !errors.Is(err, ErrBadEngineBlob) && !errors.Is(err, errBlobVersion) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		got.lastEpoch = w
		again := got.appendImage(nil)
		if w, err = decodeImage(back, again); err != nil {
			t.Fatalf("readImage refuses its own re-encoding: %v\n%q", err, again)
		}
		back.lastEpoch = w
		if twice := back.appendImage(nil); !bytes.Equal(twice, again) {
			t.Fatalf("re-encoding changed the image:\n%q\n%q", again, twice)
		}
	})
}
