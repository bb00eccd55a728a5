package recon

import (
	"errors"
	"slices"
	"testing"

	"orchestra/internal/codec"
	"orchestra/internal/updates"
)

// SavedState is a State flattened to plain data the tests compare: every
// node that holds a transaction, with its disposition and priority, and the
// accepted-write index. The oracle saves and restores its own state in
// this form.
type SavedState struct {
	Txns   []SavedTxn   // in TxnID order
	Writes []SavedWrite // in key order
}

// SavedTxn is one graph node: the transaction plus its disposition.
type SavedTxn struct {
	Txn    *updates.Transaction
	Status Status
	Prio   int
}

// SavedWrite is one entry of the accepted-write index.
type SavedWrite struct {
	Key    string
	Writer updates.TxnID
	Del    bool
	TupKey string
}

// saved flattens s. The transactions are the state's own, not copies.
func saved(s *State) *SavedState {
	sv := &SavedState{}
	for _, id := range s.IDs() {
		n := s.nodes[id]
		sv.Txns = append(sv.Txns, SavedTxn{Txn: n.txn, Status: n.status, Prio: n.prio})
	}
	keys := make([]string, 0, len(s.acceptedWrites))
	for k := range s.acceptedWrites {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		w := s.acceptedWrites[k]
		sv.Writes = append(sv.Writes, SavedWrite{Key: k, Writer: w.writer, Del: w.del, TupKey: w.tupKey})
	}
	return sv
}

var errBadSection = errors.New("recon test: malformed trust section")

// anyUpdate is the update check ReadState gets in these tests, whose
// states belong to no schema: it accepts every update.
func anyUpdate(*updates.Update) error { return nil }

// roundTrip writes s's image section and reads it back into a fresh State
// with s's keyOf, as a recovery does.
func roundTrip(t testing.TB, s *State) *State {
	t.Helper()
	r := codec.NewReader(s.AppendState(nil), errBadSection)
	back := NewState(s.keyOf)
	if err := back.ReadState(r, anyUpdate); err != nil {
		t.Fatalf("ReadState refuses AppendState's section: %v", err)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("ReadState left bytes of AppendState's section: %v", err)
	}
	return back
}
