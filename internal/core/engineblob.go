package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"orchestra/internal/datalog"
	"orchestra/internal/exchange"
	"orchestra/internal/lsm"
	"orchestra/internal/provenance"
	"orchestra/internal/recon"
	"orchestra/internal/schema"
	"orchestra/internal/updates"
)

// Engine-snapshot blob (DESIGN.md §13): the single value under the "e/"
// keyspace that captures everything a peer accumulates outside its instance
// rows — the translation engine (through exchange.Engine.SaveState), the
// reconciliation state, the dependency tracker, and the epoch watermark the
// snapshot is valid at. A recovered peer that finds this blob restores
// instead of replaying: only transactions with epoch > the watermark
// re-enter the engine and the trust state.
//
// Layout (uvarint integers, uvarint-length-prefixed strings, provenance as
// the checkpoint codec's binary encodeProv bytes):
//
//	magic "OEB4"
//	watermark epoch
//	engLen, then the exchange.Engine.SaveState blob
//	nTxns · { peer, seq, epoch, status, prio (zig-zag), full flag,
//	          [full: nUps · { rel, op, oldKey, newKey, provBytes }],
//	          nDeps · { peer, seq } }
//	nOrder · { peer, seq }             (acceptance order)
//	nWrites · { key, peer, seq, del flag, tupleKey }
//	nWriters · { key, peer, seq }      (tracker last-writer index)
//
// Accepted and Rejected graph nodes serialize as skeletons (no update
// list): reconciliation never reads their updates again — see
// recon.NeedsFullTxn — and stripping them keeps the blob proportional to
// the live conflict frontier, not the whole history.

// engineBlobMagic names the layout. Version 4 has version 3's bytes; what
// changed is the rows beside it, which since version 4 are at the blob's
// watermark. A version-3 image has rows ahead of its blob, so it must take
// the errBlobVersion path with its rows.
const engineBlobMagic = "OEB4"

// errBlobVersion reports an engine blob written in another version of the
// layout (its magic differs in the version digit only). Such a blob is
// well-formed but unreadable; recovery treats it as absent, and drops the
// instance rows beside it.
var errBlobVersion = errors.New("core: engine snapshot of another format version")

// ErrBadEngineBlob reports bytes decodeEngineBlob refuses: not an engine
// blob, truncated, or carrying content encodeEngineBlob never writes. A
// recovery that meets one fails; only errBlobVersion means "absent".
var ErrBadEngineBlob = errors.New("core: malformed engine snapshot")

// engineSnapshot is the decoded form of the blob.
type engineSnapshot struct {
	Watermark uint64
	Engine    []byte
	State     *recon.SavedState
	Writers   []updates.SavedWriter
}

func encodeEngineBlob(watermark uint64, engineBlob []byte, st *recon.SavedState, writers []updates.SavedWriter) ([]byte, error) {
	buf := append([]byte(nil), engineBlobMagic...)
	buf = binary.AppendUvarint(buf, watermark)
	buf = binary.AppendUvarint(buf, uint64(len(engineBlob)))
	buf = append(buf, engineBlob...)

	buf = binary.AppendUvarint(buf, uint64(len(st.Txns)))
	for _, sv := range st.Txns {
		t := sv.Txn
		buf = appendBlobString(buf, t.ID.Peer)
		buf = binary.AppendUvarint(buf, t.ID.Seq)
		buf = binary.AppendUvarint(buf, t.Epoch)
		buf = binary.AppendUvarint(buf, uint64(sv.Status))
		buf = binary.AppendVarint(buf, int64(sv.Prio))
		if recon.NeedsFullTxn(sv.Status) {
			buf = append(buf, 1)
			buf = binary.AppendUvarint(buf, uint64(len(t.Updates)))
			for _, u := range t.Updates {
				buf = appendBlobString(buf, u.Rel)
				buf = append(buf, byte(u.Op))
				buf = appendBlobString(buf, tupleKeyOrEmpty(u.Old))
				buf = appendBlobString(buf, tupleKeyOrEmpty(u.New))
				pv, err := encodeProv(u.Prov)
				if err != nil {
					return nil, err
				}
				buf = binary.AppendUvarint(buf, uint64(len(pv)))
				buf = append(buf, pv...)
			}
		} else {
			buf = append(buf, 0)
		}
		buf = binary.AppendUvarint(buf, uint64(len(t.Deps)))
		for _, d := range t.Deps {
			buf = appendBlobString(buf, d.Peer)
			buf = binary.AppendUvarint(buf, d.Seq)
		}
	}

	buf = binary.AppendUvarint(buf, uint64(len(st.AppliedOrder)))
	for _, id := range st.AppliedOrder {
		buf = appendBlobString(buf, id.Peer)
		buf = binary.AppendUvarint(buf, id.Seq)
	}
	buf = binary.AppendUvarint(buf, uint64(len(st.Writes)))
	for _, w := range st.Writes {
		buf = appendBlobString(buf, w.Key)
		buf = appendBlobString(buf, w.Writer.Peer)
		buf = binary.AppendUvarint(buf, w.Writer.Seq)
		if w.Del {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = appendBlobString(buf, w.TupKey)
	}
	buf = binary.AppendUvarint(buf, uint64(len(writers)))
	for _, w := range writers {
		buf = appendBlobString(buf, w.Key)
		buf = appendBlobString(buf, w.Writer.Peer)
		buf = binary.AppendUvarint(buf, w.Writer.Seq)
	}
	return buf, nil
}

func decodeEngineBlob(blob []byte) (*engineSnapshot, error) {
	if len(blob) < len(engineBlobMagic) || string(blob[:3]) != engineBlobMagic[:3] {
		return nil, fmt.Errorf("%w: bad magic", ErrBadEngineBlob)
	}
	if string(blob[:len(engineBlobMagic)]) != engineBlobMagic {
		return nil, fmt.Errorf("%w: %q", errBlobVersion, blob[:len(engineBlobMagic)])
	}
	r := &blobReader{buf: blob[len(engineBlobMagic):]}
	snap := &engineSnapshot{State: &recon.SavedState{}}
	snap.Watermark = r.uvarint()
	snap.Engine = r.bytes()

	nTxns := r.uvarint()
	for i := uint64(0); i < nTxns && r.err == nil; i++ {
		t := &updates.Transaction{}
		t.ID.Peer = r.string()
		t.ID.Seq = r.uvarint()
		t.Epoch = r.uvarint()
		status := recon.Status(r.uvarint())
		if r.err == nil && status > recon.StatusDeferred {
			r.failf("unknown status %d", status)
		}
		prio := int(r.varint())
		// The full flag follows from the status; any other byte is corrupt.
		if full := r.byte(); r.err == nil && (full > 1 || (full == 1) != recon.NeedsFullTxn(status)) {
			r.failf("full flag %d on a %v transaction", full, status)
		} else if full == 1 {
			nUps := r.uvarint()
			for j := uint64(0); j < nUps && r.err == nil; j++ {
				u := updates.Update{Rel: r.string(), Op: updates.Op(r.byte())}
				if r.err == nil && u.Op > updates.OpModify {
					r.failf("unknown op %d", u.Op)
				}
				u.Old = r.tuple()
				u.New = r.tuple()
				u.Prov = r.prov()
				t.Updates = append(t.Updates, u)
			}
		}
		nDeps := r.uvarint()
		for j := uint64(0); j < nDeps && r.err == nil; j++ {
			d := updates.TxnID{Peer: r.string()}
			d.Seq = r.uvarint()
			t.Deps = append(t.Deps, d)
		}
		snap.State.Txns = append(snap.State.Txns, recon.SavedTxn{Txn: t, Status: status, Prio: prio})
	}

	nOrder := r.uvarint()
	for i := uint64(0); i < nOrder && r.err == nil; i++ {
		id := updates.TxnID{Peer: r.string()}
		id.Seq = r.uvarint()
		snap.State.AppliedOrder = append(snap.State.AppliedOrder, id)
	}
	nWrites := r.uvarint()
	for i := uint64(0); i < nWrites && r.err == nil; i++ {
		w := recon.SavedWrite{Key: r.string(), Writer: updates.TxnID{Peer: r.string()}}
		w.Writer.Seq = r.uvarint()
		w.Del = r.byte() == 1
		w.TupKey = r.string()
		snap.State.Writes = append(snap.State.Writes, w)
	}
	nWriters := r.uvarint()
	for i := uint64(0); i < nWriters && r.err == nil; i++ {
		w := updates.SavedWriter{Key: r.string(), Writer: updates.TxnID{Peer: r.string()}}
		w.Writer.Seq = r.uvarint()
		snap.Writers = append(snap.Writers, w)
	}
	if r.err == nil && len(r.buf) != 0 {
		r.failf("%d trailing bytes", len(r.buf))
	}
	if r.err != nil {
		return nil, r.err
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

func tupleKeyOrEmpty(t schema.Tuple) string {
	if t == nil {
		return ""
	}
	return t.Key()
}

func appendBlobString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// blobReader is a cursor over the blob body with sticky error handling.
type blobReader struct {
	buf []byte
	err error
	pd  provDecoder
}

// failf records the first error, wrapping ErrBadEngineBlob.
func (r *blobReader) failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrBadEngineBlob}, args...)...)
	}
}

func (r *blobReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.failf("truncated (bad varint)")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *blobReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.failf("truncated (bad varint)")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *blobReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.buf) == 0 {
		r.failf("truncated (missing byte)")
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

func (r *blobReader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)) {
		r.failf("truncated (bytes overrun buffer)")
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

func (r *blobReader) string() string { return string(r.bytes()) }

// tuple reads an update's old or new tuple key: an empty key means a nil
// tuple (updates never carry empty tuples on their nil side; schema-level
// empty tuples do not appear in update old/new slots).
func (r *blobReader) tuple() schema.Tuple {
	key := r.string()
	if r.err != nil || key == "" {
		return nil
	}
	t, err := schema.ParseTupleKey(key)
	if err != nil {
		r.failf("%w", err)
	}
	return t
}

// prov reads one length-prefixed encodeProv value.
func (r *blobReader) prov() provenance.Poly {
	pv := r.bytes()
	if r.err != nil {
		return provenance.Poly{}
	}
	p, err := r.pd.decode(pv)
	if err != nil {
		r.failf("%w", err)
	}
	return p
}
