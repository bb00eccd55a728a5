// Package storage is the keyed, schema-validating view over a CDSS peer's
// local database instance. The rows themselves live in one copy-on-write
// datalog.DB — one extent per relation — which is the same structure the
// query evaluator reads, so an applied update is written exactly once. This
// package adds what the evaluator's extents do not have: schema validation,
// primary-key enforcement (answered from the extent's own lazily built
// column index), set-semantics provenance merging and O(#relations)
// snapshots.
//
// The full ORCHESTRA prototype sat on an RDBMS; this embedded engine is the
// laptop-scale substitute documented in DESIGN.md. It preserves the
// semantics update exchange needs: set semantics, keys, and indexed lookup.
package storage

import (
	"fmt"

	"orchestra/internal/datalog"
	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

// Row is a stored tuple together with its provenance annotation. Base
// tuples (locally inserted) carry a single provenance token; tuples derived
// by update exchange carry the polynomial computed by the mapping rules.
type Row = datalog.Fact

// Table is the keyed view of one relation's extent in a datalog.DB. It
// enforces the relation's primary key: two distinct tuples with the same
// key cannot coexist. Table methods are not safe for concurrent mutation;
// Instance provides the locking.
type Table struct {
	rel *schema.Relation
	db  *datalog.DB
}

// ext returns the relation's current extent, read-only. Every Table is
// built over a DB that already holds the extent (NewInstance), so Rel never
// takes its creating branch here — reads stay reads.
func (t *Table) ext() *datalog.Rel { return t.db.Rel(t.rel.Name) }

// Len returns the number of stored tuples.
func (t *Table) Len() int { return t.ext().Len() }

// ErrKeyViolation reports a write of a tuple whose primary key a different
// stored tuple already holds.
type ErrKeyViolation struct {
	Relation string
	Key      schema.Tuple
	Existing schema.Tuple
	New      schema.Tuple
}

// Error implements error.
func (e *ErrKeyViolation) Error() string {
	return fmt.Sprintf("storage: key violation in %s: key %v held by %v, attempted %v",
		e.Relation, e.Key, e.Existing, e.New)
}

// Upsert inserts the tuple, replacing any existing tuple with the same
// primary key. It returns the replaced tuple, if any.
func (t *Table) Upsert(tu schema.Tuple, prov provenance.Poly) (replaced *schema.Tuple, err error) {
	if err := t.rel.Validate(tu); err != nil {
		return nil, err
	}
	if prev, ok := t.GetByKey(t.rel.KeyOf(tu)); ok {
		if prev.Tuple.Equal(tu) {
			t.merge(prev, prov)
			return nil, nil
		}
		t.db.Remove(t.rel.Name, prev.Tuple)
		replaced = &prev.Tuple
	}
	t.put(tu, prov)
	return replaced, nil
}

// put stores a tuple not yet in the extent. Stored tuples are immutable:
// the clone keeps the caller's slice from aliasing a row snapshots share.
func (t *Table) put(tu schema.Tuple, prov provenance.Poly) {
	t.db.Set(t.rel.Name, tu.Clone(), prov)
}

// merge adds prov to a stored row's annotation (an alternative derivation
// of the same tuple): the witness-set union, so re-inserting a row under a
// token it already holds leaves it as it was, and the row reads what the
// evaluator derives for it. The union replaces the stored annotation
// outright; DB.Set interns it.
func (t *Table) merge(row Row, prov provenance.Poly) {
	t.db.Set(t.rel.Name, row.Tuple, row.Prov.Add(prov))
}

// Delete removes the exact tuple. It reports whether the tuple was present.
func (t *Table) Delete(tu schema.Tuple) bool {
	if !t.ext().Contains(tu) {
		return false
	}
	t.db.Remove(t.rel.Name, tu)
	return true
}

// Get returns the row for the exact tuple.
func (t *Table) Get(tu schema.Tuple) (Row, bool) { return t.ext().Get(tu) }

// GetByKey returns the row whose primary key matches, if any. The probe
// goes through the extent's index on the key columns — built on first use,
// maintained incrementally afterwards, and shared with any query that binds
// the same columns. A relation without a declared key is keyed by the whole
// tuple, which the extent's tuple map already answers.
func (t *Table) GetByKey(key schema.Tuple) (Row, bool) {
	if len(t.rel.Key) == 0 {
		return t.ext().Get(key)
	}
	if fs := t.ext().Lookup(t.rel.Key, key); len(fs) > 0 {
		return fs[0], true
	}
	return Row{}, false
}

// Rows returns all rows sorted by tuple order (deterministic).
func (t *Table) Rows() []Row { return t.ext().Facts() }
