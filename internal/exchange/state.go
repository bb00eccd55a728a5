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

// Engine state serialization (DESIGN.md §13). AppendState captures
// everything the translation engine accumulates over its lifetime — the
// union database (through the datalog snapshot codec), the base-token map,
// and the applied-transaction set — so a recovered peer restores the engine
// and replays only the post-checkpoint archive suffix instead of its whole
// fetched history. The deletion index is not saved: the restored engine
// builds it from the union database at its first deletion.
//
// Section layout (uvarint integers, uvarint-length-prefixed strings; a
// peer's engine blob embeds it after its own magic):
//
//	the datalog.AppendDB section of the union database
//	baseCount · { key, tokCount · tok }  (sorted by key)
//	appliedCount · { peer, seq }         (sorted by TxnID)
//
// SaveState and LoadState frame the section on its own, after the magic
// "OES4".

// stateMagic versions SaveState's framing of the section. Version 4 holds
// the union database as a bare section, where version 3 held a
// length-prefixed snapshot with its own magic; version 3 dropped version
// 2's dead-token section, which nothing read.
const stateMagic = "OES4"

// AppendState appends the engine's state section to buf without mutating
// the engine.
func (e *Engine) AppendState(buf []byte) []byte {
	buf = datalog.AppendDB(buf, e.inc.DB())

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
	return buf
}

// SaveState serializes the engine's accumulated state on its own: the
// magic, then the AppendState section.
func (e *Engine) SaveState() ([]byte, error) {
	return e.AppendState([]byte(stateMagic)), nil
}

// ReadState replaces the engine's accumulated state with the AppendState
// section read from r: the union database is decoded and wrapped in restored
// incremental maintenance (no re-evaluation — the snapshot is already at
// fixpoint), and the base-token map and applied set are rebuilt exactly.
// Malformed bytes fail r; on any error the engine is left unchanged.
func (e *Engine) ReadState(r *codec.Reader) error {
	st, err := e.readState(r)
	if err == nil {
		e.inc, e.baseTokens, e.applied = st.inc, st.base, st.applied
	}
	return err
}

// LoadState is ReadState over a SaveState snapshot, which must hold nothing
// after its section. Malformed bytes fail with an error wrapping
// ErrBadState.
func (e *Engine) LoadState(blob []byte) error {
	if len(blob) < len(stateMagic) || string(blob[:len(stateMagic)]) != stateMagic {
		return fmt.Errorf("%w: bad magic", ErrBadState)
	}
	r := codec.NewReader(blob[len(stateMagic):], ErrBadState)
	st, err := e.readState(r)
	if err == nil {
		err = r.Done()
	}
	if err == nil {
		e.inc, e.baseTokens, e.applied = st.inc, st.base, st.applied
	}
	return err
}

// engineState is a state section as read, before it replaces the engine's.
type engineState struct {
	inc     *datalog.Incremental
	base    map[string][]provenance.Var
	applied map[updates.TxnID]bool
}

func (e *Engine) readState(r *codec.Reader) (engineState, error) {
	db := datalog.ReadDB(r)

	// Every base key, token and applied id takes at least one byte.
	nBase := r.Count("base key", 1)
	base := make(map[string][]provenance.Var, nBase)
	for i := 0; i < nBase && r.Err() == nil; i++ {
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
	for i := 0; i < nApplied && r.Err() == nil; i++ {
		applied[updates.TxnID{Peer: r.Name(), Seq: r.Uvarint()}] = true
	}
	if err := r.Err(); err != nil {
		return engineState{}, err
	}
	inc, err := datalog.RestoreIncremental(e.prog, db, e.opts)
	return engineState{inc, base, applied}, err
}

// StatState skims a state section in r, summarizing its union database
// without materializing it — the path behind `orchestra inspect`. It reads
// no further than the union database.
func StatState(r *codec.Reader) datalog.DBStats {
	return datalog.SkimDB(r)
}
