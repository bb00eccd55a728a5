package exchange

import (
	"encoding/binary"
	"fmt"
	"sort"

	"orchestra/internal/codec"
	"orchestra/internal/datalog"
	"orchestra/internal/provenance"
	"orchestra/internal/updates"
)

// Engine state serialization (DESIGN.md §13). SaveState captures everything
// the translation engine accumulates over its lifetime — the union database
// (through the datalog snapshot codec), the base-token map, and the
// applied-transaction set — so a recovered peer restores the engine and
// replays only the post-checkpoint archive suffix instead of its whole
// fetched history. The deletion index is not saved: the restored engine
// builds it from the union database at its first deletion.
//
// Layout (uvarint integers, uvarint-length-prefixed strings):
//
//	magic "OES3"
//	dbLen, then the EncodeDB blob
//	baseCount · { key, tokCount · tok }  (sorted by key)
//	appliedCount · { peer, seq }         (sorted by TxnID)

// stateMagic versions the engine-state layout; see codecMagic in
// internal/datalog for the refusal contract. Version 3 drops version 2's
// dead-token section, which nothing read.
const stateMagic = "OES3"

// SaveState serializes the engine's accumulated state without mutating the
// engine.
func (e *Engine) SaveState() ([]byte, error) {
	dbBlob, err := datalog.EncodeDB(e.inc.DB())
	if err != nil {
		return nil, err
	}
	buf := append([]byte(nil), stateMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(dbBlob)))
	buf = append(buf, dbBlob...)

	baseKeys := make([]string, 0, len(e.baseTokens))
	for k := range e.baseTokens {
		baseKeys = append(baseKeys, k)
	}
	sort.Strings(baseKeys)
	buf = binary.AppendUvarint(buf, uint64(len(baseKeys)))
	for _, k := range baseKeys {
		buf = codec.AppendString(buf, k)
		toks := e.baseTokens[k]
		buf = binary.AppendUvarint(buf, uint64(len(toks)))
		for _, t := range toks {
			buf = codec.AppendString(buf, string(t))
		}
	}

	applied := make([]updates.TxnID, 0, len(e.applied))
	for id := range e.applied {
		applied = append(applied, id)
	}
	sort.Slice(applied, func(i, j int) bool { return applied[i].Less(applied[j]) })
	buf = binary.AppendUvarint(buf, uint64(len(applied)))
	for _, id := range applied {
		buf = codec.AppendString(buf, id.Peer)
		buf = binary.AppendUvarint(buf, id.Seq)
	}
	return buf, nil
}

// LoadState replaces the engine's accumulated state with a SaveState
// snapshot: the union database is decoded and wrapped in restored
// incremental maintenance (no re-evaluation — the snapshot is already at
// fixpoint), and the base-token map and applied set are rebuilt exactly.
// Malformed bytes fail with an error wrapping ErrBadState, and on any error
// the engine is left unchanged.
func (e *Engine) LoadState(blob []byte) error {
	dbBlob, r, err := openState(blob)
	if err != nil {
		return err
	}
	db, err := datalog.DecodeDB(dbBlob)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadState, err)
	}

	// Every base key, token and applied id takes at least one byte.
	nBase := r.Count("base key", 1)
	base := make(map[string][]provenance.Var, nBase)
	for range nBase {
		k := r.Str()
		nToks := r.Count("base token", 1)
		toks := make([]provenance.Var, 0, nToks)
		for range nToks {
			toks = append(toks, provenance.Var(r.Str()))
		}
		base[k] = toks
	}
	nApplied := r.Count("applied transaction", 1)
	applied := make(map[updates.TxnID]bool, nApplied)
	for range nApplied {
		applied[updates.TxnID{Peer: r.Name(), Seq: r.Uvarint()}] = true
	}
	if err := r.Done(); err != nil {
		return err
	}

	inc, err := datalog.RestoreIncremental(e.prog, db, e.opts)
	if err != nil {
		return err
	}
	e.inc = inc
	e.baseTokens = base
	e.applied = applied
	return nil
}

// StatState summarizes an engine snapshot's union-database section without
// materializing it — the path behind `orchestra inspect`.
func StatState(blob []byte) (datalog.DBStats, error) {
	dbBlob, _, err := openState(blob)
	if err != nil {
		return datalog.DBStats{}, err
	}
	return datalog.StatDB(dbBlob)
}

// openState checks a snapshot's magic and splits off its union-database
// section, returning a reader positioned after it.
func openState(blob []byte) ([]byte, *codec.Reader, error) {
	if len(blob) < len(stateMagic) || string(blob[:len(stateMagic)]) != stateMagic {
		return nil, nil, fmt.Errorf("%w: bad magic", ErrBadState)
	}
	r := codec.NewReader(blob[len(stateMagic):], ErrBadState)
	dbBlob := r.Bytes()
	return dbBlob, r, r.Err()
}
