package exchange

import (
	"encoding/binary"
	"fmt"
	"sort"

	"orchestra/internal/datalog"
	"orchestra/internal/provenance"
	"orchestra/internal/updates"
)

// Engine state serialization (DESIGN.md §13). SaveState captures everything
// the translation engine accumulates over its lifetime — the union database
// (through the datalog snapshot codec), the dead-token set, the base-token
// map, and the applied-transaction set — so a recovered peer restores the
// engine and replays only the post-checkpoint archive suffix instead of its
// whole fetched history. The deletion index is not saved: the restored
// engine builds it from the union database at its first deletion.
//
// Layout (uvarint integers, uvarint-length-prefixed strings):
//
//	magic "OES2"
//	dbLen, then the EncodeDB blob
//	deadCount · { var }                  (sorted)
//	baseCount · { key, tokCount · tok }  (sorted by key)
//	appliedCount · { peer, seq }         (sorted by TxnID)

// stateMagic versions the engine-state layout; see codecMagic in
// internal/datalog for the refusal contract.
const stateMagic = "OES2"

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

	dead := e.inc.DeadTokens()
	buf = binary.AppendUvarint(buf, uint64(len(dead)))
	for _, v := range dead {
		buf = appendStateString(buf, string(v))
	}

	baseKeys := make([]string, 0, len(e.baseTokens))
	for k := range e.baseTokens {
		baseKeys = append(baseKeys, k)
	}
	sort.Strings(baseKeys)
	buf = binary.AppendUvarint(buf, uint64(len(baseKeys)))
	for _, k := range baseKeys {
		buf = appendStateString(buf, k)
		toks := e.baseTokens[k]
		buf = binary.AppendUvarint(buf, uint64(len(toks)))
		for _, t := range toks {
			buf = appendStateString(buf, string(t))
		}
	}

	applied := make([]updates.TxnID, 0, len(e.applied))
	for id := range e.applied {
		applied = append(applied, id)
	}
	sort.Slice(applied, func(i, j int) bool { return applied[i].Less(applied[j]) })
	buf = binary.AppendUvarint(buf, uint64(len(applied)))
	for _, id := range applied {
		buf = appendStateString(buf, id.Peer)
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

	nDead := r.uvarint()
	dead := make([]provenance.Var, 0, r.capHint(nDead))
	for i := uint64(0); i < nDead && r.err == nil; i++ {
		dead = append(dead, provenance.Var(r.string()))
	}
	nBase := r.uvarint()
	base := make(map[string][]provenance.Var, r.capHint(nBase))
	for i := uint64(0); i < nBase && r.err == nil; i++ {
		k := r.string()
		nToks := r.uvarint()
		toks := make([]provenance.Var, 0, r.capHint(nToks))
		for j := uint64(0); j < nToks && r.err == nil; j++ {
			toks = append(toks, provenance.Var(r.string()))
		}
		base[k] = toks
	}
	nApplied := r.uvarint()
	applied := make(map[updates.TxnID]bool, r.capHint(nApplied))
	for i := uint64(0); i < nApplied && r.err == nil; i++ {
		id := updates.TxnID{Peer: r.string()}
		id.Seq = r.uvarint()
		applied[id] = true
	}
	if r.err != nil {
		return r.err
	}
	if len(r.buf) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadState, len(r.buf))
	}

	inc, err := datalog.RestoreIncremental(e.prog, db, e.opts, dead)
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
func openState(blob []byte) ([]byte, *stateReader, error) {
	if len(blob) < len(stateMagic) || string(blob[:len(stateMagic)]) != stateMagic {
		return nil, nil, fmt.Errorf("%w: bad magic", ErrBadState)
	}
	r := &stateReader{buf: blob[len(stateMagic):]}
	dbLen := r.uvarint()
	if r.err == nil && dbLen > uint64(len(r.buf)) {
		r.err = fmt.Errorf("%w: db blob overruns buffer", ErrBadState)
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	dbBlob := r.buf[:dbLen]
	r.buf = r.buf[dbLen:]
	return dbBlob, r, nil
}

func appendStateString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// stateReader is a cursor over the snapshot body with sticky error handling.
type stateReader struct {
	buf []byte
	err error
}

func (r *stateReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.err = fmt.Errorf("%w: bad varint", ErrBadState)
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// capHint bounds a decoded count used as a capacity hint by the bytes left:
// every counted item takes at least one, so a larger count is corrupt and
// fails on the read that runs out, not on the allocation.
func (r *stateReader) capHint(n uint64) int {
	return int(min(n, uint64(len(r.buf))))
}

func (r *stateReader) string() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.buf)) {
		r.err = fmt.Errorf("%w: string overruns buffer", ErrBadState)
		return ""
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}
