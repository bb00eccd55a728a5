package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"orchestra/internal/codec"
	"orchestra/internal/datalog"
	"orchestra/internal/exchange"
	"orchestra/internal/lsm"
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
//	magic "OEB9"
//	watermark epoch
//	the exchange.Engine.AppendState section (union database, base tokens,
//	    applied set)
//	the instance: a datalog.AppendDB section, one predicate per relation
//	the recon.State.AppendState section (its transactions, their
//	    annotations, the accepted writes)
//
// Every annotation in the image goes through the one provenance table
// codec (provenance.TableWriter), one table per section that holds any.

// engineBlobMagic names the layout. Version 9 writes the trust state's
// annotations through a polynomial table, where version 8 spelled each one
// out; version 8 took the instance into the blob from "c/" rows beside it.
// An image of another version takes the errBlobVersion path.
const engineBlobMagic = "OEB9"

// errBlobVersion reports an engine blob written in another version of the
// layout (its magic differs in the version digit only). Such a blob is
// well-formed but unreadable; recovery treats it as absent.
var errBlobVersion = errors.New("core: engine snapshot of another format version")

// ErrBadEngineBlob reports checkpoint bytes core's decoders refuse: an
// engine blob, a meta record, a queued transaction or a journal record that
// is truncated, followed by trailing bytes, or carrying content its writer
// never writes — among it an instance, or an open transaction's update, that
// a peer of this schema could not hold.
// A recovery that meets one fails; only errBlobVersion means "absent".
var ErrBadEngineBlob = errors.New("core: malformed checkpoint")

// appendImage appends the peer's image at its lastEpoch to buf, each
// section once.
func (p *Peer) appendImage(buf []byte) []byte {
	buf = append(buf, engineBlobMagic...)
	buf = binary.AppendUvarint(buf, p.lastEpoch)
	buf = p.engine.AppendState(buf)
	p.local.EDB(func(edb *datalog.DB) { buf = datalog.AppendDB(buf, edb) })
	return p.state.AppendState(buf)
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
	s := p.local.Schema()
	local, err := storage.NewInstanceFrom(s, db)
	if err != nil {
		return 0, fmt.Errorf("%w: instance: %w", ErrBadEngineBlob, err)
	}

	// An open transaction's updates must fit the schema, as a commit's do.
	valid := func(u *updates.Update) error {
		_, err := checkUpdate(s, p.name, u)
		return err
	}
	if err := p.state.ReadState(r, valid); err != nil {
		return 0, fmt.Errorf("trust state: %w", err)
	}
	if err := r.Done(); err != nil {
		return 0, err
	}
	p.local = local
	return watermark, nil
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
