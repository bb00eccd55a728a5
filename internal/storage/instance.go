package storage

import (
	"fmt"
	"sync"

	"orchestra/internal/datalog"
	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

// Instance is a database instance over one schema: a keyed view (one Table
// per relation) over a single datalog.DB that holds every row. An Instance
// is safe for concurrent use; a coarse RW mutex suffices at the scales a
// single CDSS peer handles between update exchanges. Readers of a Snapshot
// never take the lock: the DB's copy-on-write protocol keeps every extent
// they can reach frozen. An EDB reader holds the read lock instead.
type Instance struct {
	mu     sync.RWMutex
	schema *schema.Schema
	db     *datalog.DB
}

// NewInstance creates an empty instance with one extent per relation. The
// extents are created up front so that no read path ever has to create one
// (a map write under the read lock).
func NewInstance(s *schema.Schema) *Instance {
	db := datalog.NewDB()
	for _, r := range s.Relations() {
		db.Rel(r.Name)
	}
	return &Instance{schema: s, db: db}
}

// NewInstanceFrom makes db, holding a saved instance's rows, the instance
// over s. It refuses a db whose rows s could not hold: a relation s does not
// declare (ErrUnknownRelation), a tuple the relation's Validate rejects, or
// two tuples under one primary key (ErrKeyViolation). Relations db has no
// extent for start empty. The instance takes db over.
func NewInstanceFrom(s *schema.Schema, db *datalog.DB) (*Instance, error) {
	in := &Instance{schema: s, db: db}
	for _, name := range db.Preds() {
		t, ok := in.view(name)
		if !ok {
			return nil, fmt.Errorf("%w %s", ErrUnknownRelation, name)
		}
		for row := range t.ext().All() {
			if err := t.rel.Validate(row.Tuple); err != nil {
				return nil, err
			}
			// The first of two tuples under one key answers for it.
			key := t.rel.KeyOf(row.Tuple)
			if held, _ := t.GetByKey(key); !held.Tuple.Equal(row.Tuple) {
				return nil, &ErrKeyViolation{Relation: name, Key: key, Existing: held.Tuple, New: row.Tuple}
			}
		}
	}
	for _, r := range s.Relations() {
		db.Rel(r.Name)
	}
	return in, nil
}

// Schema returns the instance's schema.
func (in *Instance) Schema() *schema.Schema { return in.schema }

// view returns the keyed view of a relation; ok is false for a relation the
// schema does not declare.
func (in *Instance) view(name string) (Table, bool) {
	rel := in.schema.Relation(name)
	return Table{rel: rel, db: in.db}, rel != nil
}

// Table returns the table for a relation name, or nil. The table reads the
// instance's rows without its lock: use it on a snapshot, or where nothing
// writes the instance concurrently, and mutate only through the Instance
// methods.
func (in *Instance) Table(name string) *Table {
	t, ok := in.view(name)
	if !ok {
		return nil
	}
	return &t
}

// Upsert inserts or key-replaces a tuple in the named relation.
func (in *Instance) Upsert(rel string, tu schema.Tuple, prov provenance.Poly) (*schema.Tuple, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	t, ok := in.view(rel)
	if !ok {
		return nil, fmt.Errorf("%w %s", ErrUnknownRelation, rel)
	}
	return t.Upsert(tu, prov)
}

// Delete removes a tuple from the named relation.
func (in *Instance) Delete(rel string, tu schema.Tuple) (bool, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	t, ok := in.view(rel)
	if !ok {
		return false, fmt.Errorf("%w %s", ErrUnknownRelation, rel)
	}
	return t.Delete(tu), nil
}

// Rows returns the named relation's rows sorted by tuple order, under the
// instance lock — safe against concurrent mutation, unlike calling
// Table(rel).Rows() on a live instance. ok is false for an unknown
// relation.
func (in *Instance) Rows(rel string) (rows []Row, ok bool) {
	in.mu.RLock()
	defer in.mu.RUnlock()
	t, ok := in.view(rel)
	if !ok {
		return nil, false
	}
	return t.Rows(), true
}

// EDB hands read the DB the instance itself writes, one predicate per
// relation, and holds the instance's read lock until read returns: the
// evaluation reads the stored extents in place (and builds its indexes on
// them), with no snapshot and nothing to give back. read must not write
// the DB, create an extent in it, or keep it: an evaluation over it derives
// into a view or snapshot of its own (datalog.Prepared.EvalScoped,
// Prepared.Eval), which never write its extents. (A snapshot does hand the
// DB a fresh ownership token, so the instance's next write to each extent
// copies it.)
func (in *Instance) EDB(read func(edb *datalog.DB)) {
	in.mu.RLock()
	defer in.mu.RUnlock()
	read(in.db)
}

// Snapshot returns an O(#relations) copy-on-write frozen view: it shares
// every extent with the live instance, and the first post-snapshot mutation
// of an extent (on either side) clones it, so later edits never show
// through. Extents that are never edited are never copied.
func (in *Instance) Snapshot() *Instance {
	in.mu.Lock()
	defer in.mu.Unlock()
	return &Instance{schema: in.schema, db: in.db.Snapshot()}
}

// Equal reports whether two instances hold exactly the same tuples in each
// of in's relations (ignoring provenance).
func (in *Instance) Equal(o *Instance) bool {
	if in.schema != o.schema && in.schema.Name != o.schema.Name {
		return false
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	o.mu.RLock()
	defer o.mu.RUnlock()
	for _, rel := range in.schema.Relations() {
		t, _ := in.view(rel.Name)
		ot, ok := o.view(rel.Name)
		if !ok {
			if t.Len() > 0 {
				return false
			}
			continue
		}
		if t.Len() != ot.Len() {
			return false
		}
		for _, row := range t.Rows() {
			if _, ok := ot.Get(row.Tuple); !ok {
				return false
			}
		}
	}
	return true
}
