package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"orchestra/internal/codec"
	"orchestra/internal/datalog"
	"orchestra/internal/exchange"
	"orchestra/internal/lsm"
	"orchestra/internal/provenance"
	"orchestra/internal/recon"
	"orchestra/internal/storage"
	"orchestra/internal/updates"
)

// Engine blob (DESIGN.md §13): the single value under the "e/" keyspace that
// is a peer's checkpoint image — everything the peer holds at one epoch W,
// the blob's watermark: the translation engine (through
// exchange.Engine.AppendState), the instance, and the reconciliation state
// (whose accepted-write index is also where a local commit's dependencies
// come from). A recovered peer that finds this blob restores it instead of
// replaying: only transactions with epoch > W re-enter the engine, the
// trust state and the instance.
//
// Layout (uvarint integers, uvarint-length-prefixed strings), written in
// one pass into one buffer and read back through one codec.Reader; no
// section is length-prefixed or carries a magic of its own:
//
//	magic "OEB8"
//	watermark epoch
//	the exchange.Engine.AppendState section (union database, base tokens,
//	    applied set)
//	the instance: a datalog.AppendDB section, one predicate per relation
//	nTxns · { status, prio (zig-zag), updates.AppendTxn bytes,
//	          one appendProv value per update }
//	nWrites · { key, peer, seq, del flag, tupleKey }
//
// Each graph node is written as the trust state holds it: Accepted and
// Rejected nodes are skeletons (no update list; see recon.State), so the
// blob's transaction bodies are those of the open conflict frontier, not of
// the whole history.

// engineBlobMagic names the layout. Version 8 carries the instance, which
// earlier layouts kept as one "c/" row per tuple beside the blob, and holds
// the engine state as a bare section where version 7 held a length-prefixed
// copy of its own framing. Version 7 embedded version 3 of the engine
// state, which dropped the dead-token section. Version 6 stored each
// transaction in the transaction codec the archive and the queue use. An
// image of another version takes the errBlobVersion path.
const engineBlobMagic = "OEB8"

// errBlobVersion reports an engine blob written in another version of the
// layout (its magic differs in the version digit only). Such a blob is
// well-formed but unreadable; recovery treats it as absent.
var errBlobVersion = errors.New("core: engine snapshot of another format version")

// ErrBadEngineBlob reports checkpoint bytes core's decoders refuse: an
// engine blob, a meta record, a queued transaction or a journal record that
// is truncated, followed by trailing bytes, or carrying content its writer
// never writes — among it an instance a peer of this schema could not hold.
// A recovery that meets one fails; only errBlobVersion means "absent".
var ErrBadEngineBlob = errors.New("core: malformed checkpoint")

// appendImage appends the peer's image at its lastEpoch to buf, each
// section once.
func (p *Peer) appendImage(buf []byte) []byte {
	buf = append(buf, engineBlobMagic...)
	buf = binary.AppendUvarint(buf, p.lastEpoch)
	buf = p.engine.AppendState(buf)
	edb, release := p.local.EDB()
	buf = datalog.AppendDB(buf, edb)
	release()

	st := p.state.Save()
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

// openEngineBlob checks a blob's magic and returns a reader positioned at
// its watermark.
func openEngineBlob(blob []byte) (*codec.Reader, error) {
	if len(blob) < len(engineBlobMagic) || string(blob[:3]) != engineBlobMagic[:3] {
		return nil, fmt.Errorf("%w: bad magic", ErrBadEngineBlob)
	}
	if string(blob[:len(engineBlobMagic)]) != engineBlobMagic {
		return nil, fmt.Errorf("%w: %q", errBlobVersion, blob[:len(engineBlobMagic)])
	}
	return codec.NewReader(blob[len(engineBlobMagic):], ErrBadEngineBlob), nil
}

// readEngineBlob reads the peer's engine blob through get and returns a
// reader positioned at its watermark, or nil when there is none or it was
// written in another layout version.
func readEngineBlob(get func([]byte) ([]byte, bool, error), peer string) (*codec.Reader, error) {
	raw, ok, err := get(ekKey(peer))
	if err != nil || !ok {
		return nil, err
	}
	r, err := openEngineBlob(raw)
	if errors.Is(err, errBlobVersion) {
		return nil, nil
	}
	return r, err
}

// readImage restores the peer's engine, instance and trust state from the
// blob at r and returns its watermark. On error the peer is unusable.
func (p *Peer) readImage(r *codec.Reader) (uint64, error) {
	watermark := r.Uvarint()
	if err := p.engine.ReadState(r); err != nil {
		return 0, err
	}
	db := datalog.ReadDB(r)
	if err := r.Err(); err != nil {
		return 0, err
	}
	local, err := storage.NewInstanceFrom(p.local.Schema(), db)
	if err != nil {
		return 0, fmt.Errorf("%w: instance: %w", ErrBadEngineBlob, err)
	}

	// Every count below sizes its slice up front, and transactions are
	// carved from shared chunks: recovery decodes one entry per transaction
	// of the covered history. An entry takes at least seven bytes, a write
	// five.
	st := &recon.SavedState{}
	var pd provDecoder
	nTxns := r.Count("transaction", 7)
	st.Txns = make([]recon.SavedTxn, 0, nTxns)
	var chunk []updates.Transaction
	for i := 0; i < nTxns && r.Err() == nil; i++ {
		if len(chunk) == 0 {
			chunk = make([]updates.Transaction, min(nTxns-i, 256))
		}
		t := &chunk[0]
		chunk = chunk[1:]
		code := r.Uvarint()
		if r.Err() == nil && code > uint64(recon.StatusDeferred) {
			r.Fail("unknown status %d", code)
		}
		status := recon.Status(code)
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
		st.Txns = append(st.Txns, recon.SavedTxn{Txn: t, Status: status, Prio: prio})
	}

	nWrites := r.Count("write", 5)
	st.Writes = make([]recon.SavedWrite, 0, nWrites)
	for i := 0; i < nWrites && r.Err() == nil; i++ {
		w := recon.SavedWrite{Key: r.Str(), Writer: updates.TxnID{Peer: r.Name(), Seq: r.Uvarint()}}
		switch del := r.Byte(); {
		case del == 1:
			w.Del = true
		case del > 1 && r.Err() == nil:
			r.Fail("del flag %d", del)
		}
		w.TupKey = r.Str()
		st.Writes = append(st.Writes, w)
	}
	if err := r.Done(); err != nil {
		return 0, err
	}
	if err := p.state.Restore(st); err != nil {
		return 0, fmt.Errorf("%w: trust state: %w", ErrBadEngineBlob, err)
	}
	p.local = local
	return watermark, nil
}

// appendProv/provDecoder are the binary form of the provenance polynomial
// of an update the trust state holds: a sum of monomials as varints with
// length-prefixed variable names, in the layout of N[X]'s
// coef·x1^k1·…·xn^kn — appendProv writes 1 in every coefficient and power
// slot. The codec writes names, read monomial by monomial through
// NumMonomials/Monomial, so it is independent of the polynomial's in-memory
// token ids and node layout; provDecoder writes straight into that layout
// through a provenance.Arena.
func appendProv(buf []byte, p provenance.Poly) []byte {
	buf = binary.AppendUvarint(buf, uint64(p.NumMonomials()))
	for i := range p.NumMonomials() {
		m := p.Monomial(i)
		buf = binary.AppendUvarint(buf, 1) // coefficient
		buf = binary.AppendUvarint(buf, uint64(len(m)))
		for _, t := range m {
			buf = codec.AppendString(buf, string(t.Var()))
			buf = binary.AppendUvarint(buf, 1) // power
		}
	}
	return buf
}

// provDecoder decodes a run of appendProv values — an engine blob's
// transactions — carving their storage from one provenance.Arena, so the
// run pays a handful of allocations instead of several per value.
type provDecoder struct {
	arena provenance.Arena
}

// read reads one appendProv value from r. Any coefficient from 1 up reads as
// presence; a zero coefficient, a power other than 1, and monomials out of
// canonical order fail r. Every monomial takes at least two bytes and every
// variable at least two, so a count the remaining bytes cannot hold is
// refused before it sizes an arena reservation.
func (d *provDecoder) read(r *codec.Reader) provenance.Poly {
	nMonos := r.Count("monomial", 2)
	d.arena.Begin(nMonos)
	for range nMonos {
		if coef := r.Uvarint(); coef == 0 && r.Err() == nil {
			r.Fail("zero coefficient")
		}
		for range r.Count("variable", 2) {
			x := r.Bytes()
			if pow := r.Uvarint(); pow != 1 && r.Err() == nil {
				r.Fail("power %d: a witness holds each variable once", pow)
			}
			if r.Err() != nil {
				return provenance.Poly{}
			}
			d.arena.Add(provenance.Mint(provenance.Var(x)))
		}
		d.arena.End()
	}
	if r.Err() != nil {
		return provenance.Poly{}
	}
	p, err := d.arena.Poly()
	if err != nil {
		r.Fail("%w", err)
	}
	return p
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
	r, err := openEngineBlob(raw)
	if err != nil {
		return datalog.DBStats{}, 0, false, err
	}
	watermark = r.Uvarint()
	stats = exchange.StatState(r)
	if err := r.Err(); err != nil {
		return datalog.DBStats{}, 0, false, err
	}
	stats.Bytes = len(raw)
	return stats, watermark, true, nil
}
