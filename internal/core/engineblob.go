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
// reconciliation state (whose accepted-write index is also where a local
// commit's dependencies come from), and the epoch watermark the snapshot is
// valid at. A recovered peer that finds this blob restores
// instead of replaying: only transactions with epoch > the watermark
// re-enter the engine and the trust state.
//
// Layout (uvarint integers, uvarint-length-prefixed strings, provenance as
// the checkpoint codec's binary encodeProv bytes):
//
//	magic "OEB5"
//	watermark epoch
//	engLen, then the exchange.Engine.SaveState blob
//	nTxns · { peer, seq, epoch, status, prio (zig-zag), full flag,
//	          [full: nUps · { rel, op, oldKey, newKey, provBytes }],
//	          nDeps · { peer, seq } }
//	nWrites · { key, peer, seq, del flag, tupleKey }
//
// Accepted and Rejected graph nodes serialize as skeletons (no update
// list): reconciliation never reads their updates again — see
// recon.NeedsFullTxn — and stripping them keeps the blob proportional to
// the live conflict frontier, not the whole history.

// engineBlobMagic names the layout. Version 5 drops version 4's
// acceptance-order section, which nothing read, and its dependency-tracker
// section, whose last-writer index the trust state's accepted writes
// replace. Since version 4 the rows beside the blob are at its watermark; a
// version-3 image has rows ahead of its blob. An older image takes the
// errBlobVersion path with its rows.
const engineBlobMagic = "OEB5"

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
}

func encodeEngineBlob(watermark uint64, engineBlob []byte, st *recon.SavedState) ([]byte, error) {
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

	// Every count below sizes its slice up front, capped by what the bytes
	// left could hold, and transactions are carved from shared chunks:
	// recovery decodes one entry per transaction of the covered history.
	nTxns := r.uvarint()
	snap.State.Txns = make([]recon.SavedTxn, 0, r.capFor(nTxns, 7))
	var chunk []updates.Transaction
	for i := uint64(0); i < nTxns && r.err == nil; i++ {
		if len(chunk) == 0 {
			chunk = make([]updates.Transaction, min(nTxns-i, 256))
		}
		t := &chunk[0]
		chunk = chunk[1:]
		t.ID.Peer = r.name()
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
			if nUps > 0 {
				t.Updates = make([]updates.Update, 0, r.capFor(nUps, 5))
			}
			for j := uint64(0); j < nUps && r.err == nil; j++ {
				u := updates.Update{Rel: r.name(), Op: updates.Op(r.byte())}
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
		if nDeps > 0 {
			t.Deps = make([]updates.TxnID, 0, r.capFor(nDeps, 2))
		}
		for j := uint64(0); j < nDeps && r.err == nil; j++ {
			d := updates.TxnID{Peer: r.name()}
			d.Seq = r.uvarint()
			t.Deps = append(t.Deps, d)
		}
		snap.State.Txns = append(snap.State.Txns, recon.SavedTxn{Txn: t, Status: status, Prio: prio})
	}

	nWrites := r.uvarint()
	snap.State.Writes = make([]recon.SavedWrite, 0, r.capFor(nWrites, 5))
	for i := uint64(0); i < nWrites && r.err == nil; i++ {
		w := recon.SavedWrite{Key: r.string(), Writer: updates.TxnID{Peer: r.name()}}
		w.Writer.Seq = r.uvarint()
		w.Del = r.byte() == 1
		w.TupKey = r.string()
		snap.State.Writes = append(snap.State.Writes, w)
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
	buf   []byte
	err   error
	pd    provDecoder
	names map[string]string // see name
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

// name reads a string that repeats throughout the blob — a peer or a
// relation name — and returns one shared copy of each.
func (r *blobReader) name() string {
	b := r.bytes()
	if s, ok := r.names[string(b)]; ok {
		return s
	}
	if r.names == nil {
		r.names = map[string]string{}
	}
	s := string(b)
	r.names[s] = s
	return s
}

// capFor bounds a slice capacity for a count of entries that each take at
// least minBytes, so a corrupt count cannot size an allocation beyond what
// the remaining bytes could hold.
func (r *blobReader) capFor(n uint64, minBytes int) int {
	return int(min(n, uint64(len(r.buf)/minBytes)))
}

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
