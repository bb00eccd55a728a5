package datalog

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

// Binary snapshot codec for a DB: the durable form of the translation
// engine's union database (DESIGN.md §13). The format is a pure function
// of the database's logical content — the set of (predicate, tuple,
// polynomial) facts — so two databases that are Equal encode to identical
// bytes regardless of insertion order, intern-cache state, or slot layout.
// Provenance polynomials are encoded once each against a node table and
// referenced by index, so the hash-consed sharing the in-memory
// representation relies on survives the round trip: every fact that shared
// an annotation before EncodeDB shares one interned node after DecodeDB.
//
// Layout (all integers unsigned varints, all strings varint-length-prefixed):
//
//	magic "ODB1"
//	varCount, then each provenance.Var (sorted ascending)
//	polyCount, then each polynomial: monoCount ·
//	    { coef, varCount, { varIndex, pow }* }*
//	predCount, then each predicate (sorted ascending): name, factCount,
//	    { tupleKey, polyIndex }*
//
// The coefficient and power slots date from N[X] annotations: EncodeDB
// writes 1 in both, DecodeDB reads any coefficient ≥ 1 as presence and
// refuses a power other than 1. Tuples travel as schema.Tuple.Key() strings
// (injective, parsed back with schema.ParseTupleKey, which refuses any other
// spelling of a tuple); polynomials rebuild through a provenance.Arena and
// re-intern on decode. A polynomial table entry with zero monomials is the
// zero polynomial. A predicate with no facts is written (and decoded back)
// as an empty extent.

// codecMagic identifies (and versions) the snapshot format. Bump the digit
// on any layout change: DecodeDB refuses unknown magics instead of
// misparsing, which is what lets recovery fall back to full replay when it
// meets a snapshot written by a different build.
const codecMagic = "ODB1"

// DBStats summarizes an encoded DB snapshot without materializing it.
type DBStats struct {
	Preds     int // predicates with at least one encoded extent
	Facts     int // total facts across all predicates
	PolyNodes int // distinct provenance polynomials in the node table
	Vars      int // distinct provenance variables
	Bytes     int // encoded size
}

// EncodeDB serializes the database. Lazy extents are materialized first so
// the snapshot is truthful. The encoding is deterministic (see the package
// comment above): preds and vars are sorted, facts ride in Rel.Facts()
// tuple order, and polynomial table indices are assigned in first-encounter
// order over that fixed walk.
func EncodeDB(db *DB) ([]byte, error) {
	preds := db.Preds()
	type extent struct {
		name  string
		facts []Fact
	}
	extents := make([]extent, 0, len(preds))
	for _, p := range preds {
		extents = append(extents, extent{name: p, facts: db.Rel(p).Facts()})
	}

	// Pass 1: collect the variable universe and deduplicate polynomials by
	// content (hash-bucketed, Equal-confirmed), so structurally equal
	// annotations share one table entry even when the bounded intern cache
	// let them diverge into distinct nodes in memory.
	varSet := map[provenance.Token]struct{}{}
	type bucket struct {
		poly provenance.Poly
		idx  int
	}
	table := []provenance.Poly{}
	buckets := map[uint64][]bucket{}
	polyIndex := func(p provenance.Poly) int {
		h := p.Hash()
		for _, b := range buckets[h] {
			if b.poly.Equal(p) {
				return b.idx
			}
		}
		idx := len(table)
		table = append(table, p)
		buckets[h] = append(buckets[h], bucket{poly: p, idx: idx})
		return idx
	}
	factPolys := make([][]int, len(extents))
	for i, ext := range extents {
		factPolys[i] = make([]int, len(ext.facts))
		for j, f := range ext.facts {
			factPolys[i][j] = polyIndex(f.Prov)
			for _, x := range f.Prov.Tokens() {
				varSet[x] = struct{}{}
			}
		}
	}
	vars := make([]provenance.Token, 0, len(varSet))
	for t := range varSet {
		vars = append(vars, t)
	}
	slices.SortFunc(vars, func(a, b provenance.Token) int { return cmp.Compare(a.Var(), b.Var()) })
	varIdx := make(map[provenance.Token]int, len(vars))
	for i, t := range vars {
		varIdx[t] = i
	}

	// Pass 2: emit.
	buf := append([]byte(nil), codecMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(vars)))
	for _, t := range vars {
		buf = appendString(buf, string(t.Var()))
	}
	buf = binary.AppendUvarint(buf, uint64(len(table)))
	for _, p := range table {
		buf = binary.AppendUvarint(buf, uint64(p.NumMonomials()))
		for i := range p.NumMonomials() {
			m := p.Monomial(i)
			buf = binary.AppendUvarint(buf, 1) // coefficient
			buf = binary.AppendUvarint(buf, uint64(len(m)))
			for _, x := range m {
				buf = binary.AppendUvarint(buf, uint64(varIdx[x]))
				buf = binary.AppendUvarint(buf, 1) // power
			}
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(extents)))
	for i, ext := range extents {
		buf = appendString(buf, ext.name)
		buf = binary.AppendUvarint(buf, uint64(len(ext.facts)))
		for j, f := range ext.facts {
			buf = appendString(buf, f.Tuple.Key())
			buf = binary.AppendUvarint(buf, uint64(factPolys[i][j]))
		}
	}
	return buf, nil
}

// ErrBadSnapshot reports bytes DecodeDB or StatDB refuses: not a DB
// snapshot, cut short, holding a count its remaining bytes cannot, or
// breaking a rule EncodeDB's output always keeps. A blob DecodeDB accepts
// re-encodes to one that decodes to an Equal database. Only the order of
// tuples within an extent goes unchecked: EncodeDB writes Tuple.Compare
// order, a total order since Value.Compare follows Value.Key, but a
// snapshot written while Compare tied 0.0 with -0.0 and could not place a
// NaN may hold such tuples in another order, and must still decode.
var ErrBadSnapshot = errors.New("datalog: malformed DB snapshot")

// DecodeDB materializes a database from an EncodeDB snapshot. Each
// polynomial table entry is rebuilt and interned exactly once, then shared
// by every fact that references it.
func DecodeDB(blob []byte) (*DB, error) {
	db := NewDB()
	if _, err := walkSnapshot(blob, db); err != nil {
		return nil, err
	}
	return db, nil
}

// StatDB parses an encoded snapshot's structure without building a DB —
// the cheap path behind `orchestra inspect`.
func StatDB(blob []byte) (DBStats, error) {
	return walkSnapshot(blob, nil)
}

// walkSnapshot decodes the snapshot into db (when non-nil; tuples are only
// parsed then) and returns the structural stats either way. Every count is
// checked against the bytes left before it sizes anything — an entry of
// any section takes at least one byte per counted item, two for monomials,
// monomial variables, predicates and facts — and the rules of ErrBadSnapshot
// are checked as they are read, so hostile bytes fail with ErrBadSnapshot
// instead of panicking or allocating without bound.
func walkSnapshot(blob []byte, db *DB) (DBStats, error) {
	var stats DBStats
	stats.Bytes = len(blob)
	if len(blob) < len(codecMagic) || string(blob[:len(codecMagic)]) != codecMagic {
		return stats, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	r := &reader{buf: blob[len(codecMagic):]}

	nVars := r.count("variable", 1)
	vars := make([]provenance.Token, 0, nVars)
	var prev string
	for i := 0; i < nVars && r.err == nil; i++ {
		v := r.string()
		if i > 0 && prev >= v {
			r.fail("variables out of order")
		}
		prev = v
		vars = append(vars, provenance.Mint(provenance.Var(v)))
	}
	used := make([]bool, nVars)
	stats.Vars = len(vars)

	nPolys := r.count("polynomial", 1)
	table := make([]provenance.Poly, 0, nPolys)
	hashes := make(map[uint64]struct{}, nPolys)
	// The polynomials are tiny, numerous, and all long-lived together once
	// the table retains them, so their storage comes from one arena.
	var arena provenance.Arena
	for i := 0; i < nPolys && r.err == nil; i++ {
		nMonos := r.count("monomial", 2)
		arena.Begin(nMonos)
		for j := 0; j < nMonos && r.err == nil; j++ {
			if coef := r.uvarint(); coef == 0 && r.err == nil {
				r.fail("zero coefficient")
			}
			nToks := r.count("monomial variable", 2)
			for k := 0; k < nToks && r.err == nil; k++ {
				vi, pow := r.uvarint(), r.uvarint()
				switch {
				case r.err != nil:
				case vi >= uint64(len(vars)):
					r.fail(fmt.Sprintf("variable index %d out of range", vi))
				case pow != 1:
					r.fail(fmt.Sprintf("power %d: a witness holds each variable once", pow))
				default:
					used[vi] = true
					arena.Add(vars[vi])
				}
			}
			arena.End()
		}
		if r.err != nil {
			break
		}
		p, err := arena.Poly()
		if err != nil {
			return stats, fmt.Errorf("%w: polynomial %d: %w", ErrBadSnapshot, i, err)
		}
		// EncodeDB writes each distinct polynomial once. A repeated hash is
		// a repeated entry or, all but never, a collision: compare.
		if _, seen := hashes[p.Hash()]; seen {
			for j := range table {
				if table[j].Equal(p) {
					return stats, fmt.Errorf("%w: polynomials %d and %d are equal", ErrBadSnapshot, j, i)
				}
			}
		}
		hashes[p.Hash()] = struct{}{}
		table = append(table, p)
	}
	for i := range used {
		if !used[i] && r.err == nil {
			r.fail(fmt.Sprintf("variable %d unused", i))
		}
	}
	stats.PolyNodes = len(table)

	// Polynomial indices are handed out in first-reference order over the
	// fact walk, so a fact may reference an earlier-referenced entry or the
	// next one; at the end every entry must have been referenced.
	nextPoly := 0
	var prevPred string
	var vals schema.Tuple
	nPreds := r.count("predicate", 2)
	for i := 0; i < nPreds && r.err == nil; i++ {
		pred := r.string()
		if i > 0 && pred <= prevPred {
			r.fail("predicates out of order")
		}
		prevPred = pred
		nFacts := r.count("fact", 2)
		var rel *Rel
		if db != nil && r.err == nil {
			rel = db.MutableRel(pred)
			rel.reserve(nFacts)
		}
		for j := 0; j < nFacts && r.err == nil; j++ {
			key := r.string()
			pi := r.uvarint()
			switch {
			case r.err != nil:
				continue
			case pi > uint64(nextPoly) || pi >= uint64(len(table)):
				r.fail(fmt.Sprintf("polynomial index %d out of order", pi))
				continue
			case pi == uint64(nextPoly):
				nextPoly++
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
					return stats, fmt.Errorf("%w: tuple in %s: %w", ErrBadSnapshot, pred, err)
				}
				var t schema.Tuple
				if len(vals) > start {
					t = vals[start:len(vals):len(vals)]
				}
				h := t.Hash()
				if _, dup := rel.find(h, t); dup {
					r.fail(fmt.Sprintf("tuple key %q in %s repeats", key, pred))
				} else {
					// The extent is fresh and the tuple unseen: no merge, no
					// index to maintain, and the table entry is interned.
					rel.insert(h, t, table[pi])
				}
			}
			stats.Facts++
		}
		stats.Preds++
	}
	if r.err == nil && nextPoly != len(table) {
		r.fail(fmt.Sprintf("polynomial %d unreferenced", nextPoly))
	}
	if r.err != nil {
		return stats, r.err
	}
	if len(r.buf) != 0 {
		return stats, fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, len(r.buf))
	}
	return stats, nil
}

// appendString appends a varint-length-prefixed string.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// reader is a cursor over the snapshot body with sticky error handling.
type reader struct {
	buf []byte
	err error
}

// fail records the first error, wrapping ErrBadSnapshot.
func (r *reader) fail(msg string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrBadSnapshot, msg)
	}
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail("truncated (bad varint)")
		return 0
	}
	if n > 1 && r.buf[n-1] == 0 {
		r.fail("overlong varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// count reads the number of items of a section whose every item encodes to
// at least minBytes, refusing a count the remaining bytes cannot hold.
func (r *reader) count(what string, minBytes int) int {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.buf)/minBytes) {
		r.fail(fmt.Sprintf("%s count %d exceeds what the %d remaining bytes can hold", what, n, len(r.buf)))
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

func (r *reader) string() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.buf)) {
		r.fail("truncated (string overruns buffer)")
		return ""
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}
