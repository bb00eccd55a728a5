package recon

import (
	"fmt"
	"slices"

	"orchestra/internal/updates"
)

// Serializable reconciliation state (DESIGN.md §13). Save flattens the
// peer's accumulated trust state — every graph node with its disposition
// and priority, and the accepted-write index — into
// plain data the durability layer encodes; Restore rebuilds the state
// exactly. Each transaction is saved as the state holds it: whole while
// Pending or Deferred (group assembly and conflict-write computation read
// its updates), a skeleton (ID, Epoch, Deps) once Accepted or Rejected,
// when it contributes nothing else to antecedent closures.

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

// SavedState is the serializable form of a State.
type SavedState struct {
	Txns   []SavedTxn   // in TxnID order
	Writes []SavedWrite // in key order
}

// Save flattens the state. The returned transactions are the state's own
// (not copies); callers serialize, they do not mutate.
func (s *State) Save() *SavedState {
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

// Restore replaces the state's accumulated contents with a saved snapshot.
// The keyOf projection and the work counter are kept; everything else,
// the open-set indexes included, is rebuilt from the saved statuses, and a
// closed transaction saved whole is held as its skeleton. On error the
// state is unusable and must be discarded.
func (s *State) Restore(sv *SavedState) error {
	fresh := NewState(s.keyOf)
	fresh.nodes = make(map[updates.TxnID]*node, len(sv.Txns))
	fresh.acceptedWrites = make(map[string]writeVal, len(sv.Writes))
	fresh.visited = s.visited
	for _, st := range sv.Txns {
		if st.Txn == nil {
			return fmt.Errorf("recon: saved state has a nil transaction")
		}
		if n := fresh.nodes[st.Txn.ID]; n != nil && n.txn != nil {
			return fmt.Errorf("recon: saved state has transaction %s twice", st.Txn.ID)
		}
		n := fresh.add(st.Txn)
		n.prio = st.Prio
		fresh.move(n, st.Status)
	}
	for _, w := range sv.Writes {
		fresh.acceptedWrites[w.Key] = writeVal{writer: w.Writer, del: w.Del, tupKey: w.TupKey}
	}
	*s = *fresh
	return nil
}
