package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"orchestra/internal/codec"
	"orchestra/internal/datalog"
	"orchestra/internal/exchange"
	"orchestra/internal/lsm"
	"orchestra/internal/recon"
	"orchestra/internal/updates"
)

// Engine-snapshot blob (DESIGN.md §13): the single value under the "e/"
// keyspace that captures everything a peer accumulates outside its instance
// rows — the translation engine (through exchange.Engine.SaveState), the
// reconciliation state (whose accepted-write index is also where a local
// commit's dependencies come from), and the epoch watermark the snapshot is
// valid at. A recovered peer that finds this blob restores
// instead of replaying: only transactions with epoch > the watermark
// re-enter the engine and the trust state.
//
// Layout (uvarint integers, uvarint-length-prefixed strings, read back
// through one codec.Reader):
//
//	magic "OEB7"
//	watermark epoch
//	engLen, then the exchange.Engine.SaveState blob
//	nTxns · { status, prio (zig-zag), updates.AppendTxn bytes,
//	          one appendProv value per update }
//	nWrites · { key, peer, seq, del flag, tupleKey }
//
// Each graph node is written as the trust state holds it: Accepted and
// Rejected nodes are skeletons (no update list; see recon.State), so the
// blob's transaction bodies are those of the open conflict frontier, not of
// the whole history.

// engineBlobMagic names the layout. Version 7 embeds version 3 of the
// engine state, which drops the dead-token section. Version 6 stores each
// transaction in the transaction codec the archive and the queue use, and
// drops version 5's full-update flag, which the update count already said.
// Version 5 dropped version 4's acceptance-order section, which nothing
// read, and its dependency-tracker section, whose last-writer index the
// trust state's accepted writes replace. Since version 4 the rows beside
// the blob are at its watermark; a version-3 image has rows ahead of its
// blob. An older image takes the errBlobVersion path with its rows.
const engineBlobMagic = "OEB7"

// errBlobVersion reports an engine blob written in another version of the
// layout (its magic differs in the version digit only). Such a blob is
// well-formed but unreadable; recovery treats it as absent, and drops the
// instance rows beside it.
var errBlobVersion = errors.New("core: engine snapshot of another format version")

// ErrBadEngineBlob reports checkpoint bytes core's decoders refuse: an
// engine blob, a meta record, a queued transaction or a journal record that
// is truncated, followed by trailing bytes, or carrying content its writer
// never writes. A recovery that meets one fails; only errBlobVersion means
// "absent". (The instance rows' annotations have their own, ErrBadProv.)
var ErrBadEngineBlob = errors.New("core: malformed checkpoint")

// engineSnapshot is the decoded form of the blob.
type engineSnapshot struct {
	Watermark uint64
	Engine    []byte
	State     *recon.SavedState
}

func encodeEngineBlob(watermark uint64, engineBlob []byte, st *recon.SavedState) []byte {
	buf := append([]byte(nil), engineBlobMagic...)
	buf = binary.AppendUvarint(buf, watermark)
	buf = binary.AppendUvarint(buf, uint64(len(engineBlob)))
	buf = append(buf, engineBlob...)

	buf = binary.AppendUvarint(buf, uint64(len(st.Txns)))
	for _, sv := range st.Txns {
		buf = binary.AppendUvarint(buf, uint64(sv.Status))
		buf = binary.AppendVarint(buf, int64(sv.Prio))
		buf = updates.AppendTxn(buf, sv.Txn)
		for _, u := range sv.Txn.Updates {
			buf = appendProv(buf, u.Prov)
		}
	}

	buf = binary.AppendUvarint(buf, uint64(len(st.Writes)))
	for _, w := range st.Writes {
		buf = codec.AppendString(buf, w.Key)
		buf = codec.AppendString(buf, w.Writer.Peer)
		buf = binary.AppendUvarint(buf, w.Writer.Seq)
		if w.Del {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = codec.AppendString(buf, w.TupKey)
	}
	return buf
}

func decodeEngineBlob(blob []byte) (*engineSnapshot, error) {
	if len(blob) < len(engineBlobMagic) || string(blob[:3]) != engineBlobMagic[:3] {
		return nil, fmt.Errorf("%w: bad magic", ErrBadEngineBlob)
	}
	if string(blob[:len(engineBlobMagic)]) != engineBlobMagic {
		return nil, fmt.Errorf("%w: %q", errBlobVersion, blob[:len(engineBlobMagic)])
	}
	r := codec.NewReader(blob[len(engineBlobMagic):], ErrBadEngineBlob)
	snap := &engineSnapshot{State: &recon.SavedState{}}
	snap.Watermark = r.Uvarint()
	snap.Engine = r.Bytes()

	// Every count below sizes its slice up front, and transactions are
	// carved from shared chunks: recovery decodes one entry per transaction
	// of the covered history. An entry takes at least seven bytes, a write
	// five.
	var pd provDecoder
	nTxns := r.Count("transaction", 7)
	snap.State.Txns = make([]recon.SavedTxn, 0, nTxns)
	var chunk []updates.Transaction
	for i := 0; i < nTxns && r.Err() == nil; i++ {
		if len(chunk) == 0 {
			chunk = make([]updates.Transaction, min(nTxns-i, 256))
		}
		t := &chunk[0]
		chunk = chunk[1:]
		st := r.Uvarint()
		if r.Err() == nil && st > uint64(recon.StatusDeferred) {
			r.Fail("unknown status %d", st)
		}
		status := recon.Status(st)
		prio := int(r.Varint())
		updates.ReadTxn(r, t)
		// A closed node is a skeleton, whose update count is 0; any other
		// is corrupt.
		if r.Err() == nil && len(t.Updates) > 0 && (status == recon.StatusAccepted || status == recon.StatusRejected) {
			r.Fail("updates on a %v transaction", status)
		}
		for j := range t.Updates {
			t.Updates[j].Prov = pd.read(r)
		}
		snap.State.Txns = append(snap.State.Txns, recon.SavedTxn{Txn: t, Status: status, Prio: prio})
	}

	nWrites := r.Count("write", 5)
	snap.State.Writes = make([]recon.SavedWrite, 0, nWrites)
	for i := 0; i < nWrites && r.Err() == nil; i++ {
		w := recon.SavedWrite{Key: r.Str(), Writer: updates.TxnID{Peer: r.Name(), Seq: r.Uvarint()}}
		switch del := r.Byte(); {
		case del == 1:
			w.Del = true
		case del > 1 && r.Err() == nil:
			r.Fail("del flag %d", del)
		}
		w.TupKey = r.Str()
		snap.State.Writes = append(snap.State.Writes, w)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return snap, nil
}

// readEngineBlob reads the peer's engine blob through get; it returns nil
// when there is none or it was written in another layout version.
func readEngineBlob(get func([]byte) ([]byte, bool, error), peer string) (*engineSnapshot, error) {
	raw, ok, err := get(ekKey(peer))
	if err != nil || !ok {
		return nil, err
	}
	snap, err := decodeEngineBlob(raw)
	if errors.Is(err, errBlobVersion) {
		return nil, nil
	}
	return snap, err
}

// EngineSnapshotStats summarizes the union-database section of a peer's
// durable engine snapshot without materializing it, plus the epoch watermark
// the snapshot is valid at. The boolean reports whether a snapshot exists —
// `orchestra inspect` dumps this.
func EngineSnapshotStats(db *lsm.DB, peer string) (stats datalog.DBStats, watermark uint64, ok bool, err error) {
	sn := db.Snapshot()
	defer sn.Close()
	raw, found, err := sn.Get(ekKey(peer))
	if err != nil || !found {
		return datalog.DBStats{}, 0, false, err
	}
	snap, err := decodeEngineBlob(raw)
	if err != nil {
		return datalog.DBStats{}, 0, false, err
	}
	stats, err = exchange.StatState(snap.Engine)
	if err != nil {
		return datalog.DBStats{}, 0, false, err
	}
	stats.Bytes = len(raw)
	return stats, snap.Watermark, true, nil
}
