package datalog

import (
	"encoding/binary"

	"orchestra/internal/codec"
	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

// Binary snapshot codec for a DB: the durable form of the translation
// engine's union database and of a peer's instance, both sections of the
// peer's engine blob (DESIGN.md §13). The bytes are a function of the
// database's logical content — its (predicate, tuple, polynomial) facts —
// whatever the insertion order, intern-cache state or slot layout.
// Annotations go through the provenance polynomial table, so facts that
// shared an annotation before AppendDB share one interned node after
// ReadDB. Layout (unsigned varints, length-prefixed strings; no magic —
// the value that embeds the section names the layout):
//
//	the provenance table of the facts' annotations
//	predCount, then each predicate (sorted ascending): name, factCount,
//	    { tupleKey, polyIndex }*
//
// Tuples are schema.Tuple.Key() strings, parsed back by
// schema.ParseTupleKey, which refuses any other spelling. A predicate with
// no facts is written, and read back, as an empty extent.

// DBStats summarizes an encoded DB snapshot without materializing it.
type DBStats struct {
	Preds     int // predicates with at least one encoded extent
	Facts     int // total facts across all predicates
	PolyNodes int // distinct provenance polynomials in the node table
	Vars      int // distinct provenance variables
	Bytes     int // encoded size
}

// AppendDB appends the database's snapshot to buf. Lazy extents are
// materialized first so the snapshot is truthful. The encoding is
// deterministic (see the comment above): preds are sorted, facts ride in
// Rel.Facts() tuple order, and the table numbers annotations in
// first-reference order over that fixed walk.
func AppendDB(buf []byte, db *DB) []byte {
	preds := db.Preds()
	extents := make([][]Fact, len(preds))
	nFacts := 0
	for i, p := range preds {
		extents[i] = db.Rel(p).Facts()
		nFacts += len(extents[i])
	}

	// Pass 1 numbers the annotations (a fact adds at most one table
	// entry); pass 2 writes the table, then the facts with their numbers.
	w := provenance.NewTableWriter(nFacts)
	for _, facts := range extents {
		for _, f := range facts {
			w.Index(f.Prov)
		}
	}
	buf = w.AppendTable(buf)
	buf = binary.AppendUvarint(buf, uint64(len(extents)))
	var key []byte
	for i, facts := range extents {
		buf = codec.AppendString(buf, preds[i])
		buf = binary.AppendUvarint(buf, uint64(len(facts)))
		for _, f := range facts {
			key = f.Tuple.AppendKeyTo(key[:0])
			buf = binary.AppendUvarint(buf, uint64(len(key)))
			buf = append(buf, key...)
			buf = binary.AppendUvarint(buf, uint64(w.Index(f.Prov)))
		}
	}
	return buf
}

// ReadDB materializes a database from a snapshot AppendDB wrote, read from
// r. Each polynomial table entry is rebuilt and interned once, then shared
// by every fact that references it. Bytes AppendDB never writes fail
// r: cut short, holding a count its remaining bytes cannot, or breaking a
// rule AppendDB's output always keeps. A snapshot ReadDB accepts re-encodes
// to one that reads back to an Equal database. Only the order of tuples
// within an extent goes unchecked: AppendDB writes Tuple.Compare order, a
// total order since Value.Compare follows Value.Key, but a snapshot written
// while Compare tied 0.0 with -0.0 and could not place a NaN may hold such
// tuples in another order, and must still decode.
func ReadDB(r *codec.Reader) *DB {
	db := NewDB()
	walkSnapshot(r, db)
	return db
}

// SkimDB reads past a snapshot in r, parsing its structure without building
// a DB — the cheap path behind `orchestra inspect`.
func SkimDB(r *codec.Reader) DBStats {
	return walkSnapshot(r, nil)
}

// walkSnapshot decodes the snapshot into db (when non-nil; tuples are only
// parsed then) and returns the structural stats either way. Every count is
// checked against the bytes left before it sizes anything — a predicate or
// a fact takes at least two bytes, and provenance.ReadTable checks its own
// — and the rules of ReadDB are checked as they are read, so hostile bytes
// fail r instead of panicking or allocating without bound.
func walkSnapshot(r *codec.Reader, db *DB) DBStats {
	var stats DBStats
	before := r.Len()

	table := provenance.ReadTable(r)
	stats.Vars, stats.PolyNodes = table.Vars(), table.Len()

	var prevPred string
	var vals schema.Tuple
	nPreds := r.Count("predicate", 2)
	for i := 0; i < nPreds && r.Err() == nil; i++ {
		pred := r.Str()
		if i > 0 && pred <= prevPred {
			r.Fail("predicates out of order")
		}
		prevPred = pred
		nFacts := r.Count("fact", 2)
		var rel *Rel
		if db != nil && r.Err() == nil {
			rel = db.MutableRel(pred)
			rel.reserve(nFacts)
		}
		for j := 0; j < nFacts && r.Err() == nil; j++ {
			key := r.Str()
			prov := table.Ref(r)
			if r.Err() != nil {
				continue
			}
			if rel != nil {
				// Tuples are carved from shared chunks, one allocation per
				// few hundred facts instead of one per fact.
				if cap(vals)-len(vals) < 64 {
					vals = make(schema.Tuple, 0, 1024)
				}
				start := len(vals)
				var err error
				vals, err = schema.AppendParsedTupleKey(vals, key)
				if err != nil {
					r.Fail("tuple in %s: %w", pred, err)
					continue
				}
				var t schema.Tuple
				if len(vals) > start {
					t = vals[start:len(vals):len(vals)]
				}
				h := t.Hash()
				if _, dup := rel.find(h, t); dup {
					r.Fail("tuple key %q in %s repeats", key, pred)
				} else {
					// The extent is fresh and the tuple unseen: no merge, no
					// index to maintain, and the table entry is interned.
					rel.insert(h, t, prov)
				}
			}
			stats.Facts++
		}
		stats.Preds++
	}
	table.Finish(r)
	stats.Bytes = before - r.Len()
	return stats
}
