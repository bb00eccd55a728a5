package updates

import (
	"slices"

	"orchestra/internal/schema"
)

// Tracker derives dependency edges for freshly created transactions: it
// remembers, per (relation, key), which transaction last wrote it, so a new
// transaction touching that key depends on the previous writer. This is how
// a peer computes the Deps list when publishing the diff of its local
// instance.
type Tracker struct {
	keyOf      func(rel string, tu schema.Tuple) schema.Tuple
	lastWriter map[string]TxnID
}

// NewTracker creates a tracker using keyOf to project tuples onto keys.
func NewTracker(keyOf func(string, schema.Tuple) schema.Tuple) *Tracker {
	return &Tracker{keyOf: keyOf, lastWriter: map[string]TxnID{}}
}

// Record computes the dependencies of t from previously recorded writers,
// sets t.Deps, and records t's own writes. Self-dependencies are skipped.
func (tr *Tracker) Record(t *Transaction) {
	depSet := map[TxnID]bool{}
	for _, u := range t.Updates {
		// Reads/overwrites: deletes and modifies depend on the writer of
		// the old tuple; inserts depend on a previous writer of the same
		// key if any (e.g. re-insert after delete).
		var probe schema.Tuple
		if u.Old != nil {
			probe = u.Old
		} else {
			probe = u.New
		}
		k := u.Rel + "/" + tr.keyOf(u.Rel, probe).Key()
		if w, ok := tr.lastWriter[k]; ok && w != t.ID {
			depSet[w] = true
		}
	}
	t.Deps = t.Deps[:0]
	for d := range depSet {
		t.Deps = append(t.Deps, d)
	}
	slices.SortFunc(t.Deps, TxnID.Compare)
	for _, u := range t.Updates {
		k := u.Rel + "/" + tr.keyOf(u.Rel, u.Target()).Key()
		tr.lastWriter[k] = t.ID
	}
}

// RecordWrites registers t's writes as the latest for their keys without
// recomputing t.Deps — used for foreign transactions applied during
// reconciliation, whose dependencies were already fixed by their origin.
func (tr *Tracker) RecordWrites(t *Transaction) {
	for _, u := range t.Updates {
		k := u.Rel + "/" + tr.keyOf(u.Rel, u.Target()).Key()
		tr.lastWriter[k] = t.ID
	}
}
