package datalog

import (
	"cmp"
	"encoding/binary"
	"slices"

	"orchestra/internal/codec"
	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

// Binary snapshot codec for a DB: the durable form of the translation
// engine's union database and of a peer's instance, both sections of the
// peer's engine blob (DESIGN.md §13). The format is a pure function of the
// database's logical content — the set of (predicate, tuple, polynomial)
// facts — so two databases that are Equal encode to identical bytes
// regardless of insertion order, intern-cache state, or slot layout.
// Provenance polynomials are encoded once each against a node table and
// referenced by index, so the hash-consed sharing the in-memory
// representation relies on survives the round trip: every fact that shared
// an annotation before AppendDB shares one interned node after ReadDB.
//
// Layout (all integers unsigned varints, all strings varint-length-prefixed;
// the section carries no magic of its own — the value that embeds it names
// the layout):
//
//	varCount, then each provenance.Var (sorted ascending)
//	polyCount, then each polynomial: monoCount ·
//	    { coef, varCount, { varIndex, pow }* }*
//	predCount, then each predicate (sorted ascending): name, factCount,
//	    { tupleKey, polyIndex }*
//
// The coefficient and power slots date from N[X] annotations: AppendDB
// writes 1 in both, ReadDB reads any coefficient ≥ 1 as presence and
// refuses a power other than 1. Tuples travel as schema.Tuple.Key() strings
// (injective, parsed back with schema.ParseTupleKey, which refuses any other
// spelling of a tuple); polynomials rebuild through a provenance.Arena and
// re-intern on decode. A polynomial table entry with zero monomials is the
// zero polynomial. A predicate with no facts is written (and decoded back)
// as an empty extent.

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
// deterministic (see the package comment above): preds and vars are sorted,
// facts ride in Rel.Facts() tuple order, and polynomial table indices are
// assigned in first-encounter order over that fixed walk.
func AppendDB(buf []byte, db *DB) []byte {
	preds := db.Preds()
	extents := make([][]Fact, len(preds))
	nFacts := 0
	for i, p := range preds {
		extents[i] = db.Rel(p).Facts()
		nFacts += len(extents[i])
	}

	// Pass 1: collect the variable universe and deduplicate polynomials by
	// content (hash-chained, Equal-confirmed), so structurally equal
	// annotations share one table entry even when the bounded intern cache
	// let them diverge into distinct nodes in memory. sameHash[i] is the
	// next table entry after i with its hash, or -1. A fact adds at most one
	// entry, so sized for the facts the table never grows.
	varIdx := map[provenance.Token]int{}
	table := make([]provenance.Poly, 0, nFacts)
	sameHash := make([]int, 0, nFacts)
	byHash := make(map[uint64]int, nFacts)
	polyIndex := func(p provenance.Poly) int {
		h := p.Hash()
		i, ok := byHash[h]
		if !ok {
			i = -1
		}
		for j := i; j >= 0; j = sameHash[j] {
			if table[j].Equal(p) {
				return j
			}
		}
		byHash[h] = len(table)
		sameHash = append(sameHash, i)
		table = append(table, p)
		for _, x := range p.Tokens() {
			varIdx[x] = 0
		}
		return len(table) - 1
	}
	factPolys := make([]int, 0, nFacts)
	for _, facts := range extents {
		for _, f := range facts {
			factPolys = append(factPolys, polyIndex(f.Prov))
		}
	}
	vars := make([]provenance.Token, 0, len(varIdx))
	for t := range varIdx {
		vars = append(vars, t)
	}
	slices.SortFunc(vars, func(a, b provenance.Token) int { return cmp.Compare(a.Var(), b.Var()) })
	for i, t := range vars {
		varIdx[t] = i
	}

	// Pass 2: emit.
	buf = binary.AppendUvarint(buf, uint64(len(vars)))
	for _, t := range vars {
		buf = codec.AppendString(buf, string(t.Var()))
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
	var key []byte
	k := 0
	for i, facts := range extents {
		buf = codec.AppendString(buf, preds[i])
		buf = binary.AppendUvarint(buf, uint64(len(facts)))
		for _, f := range facts {
			key = f.Tuple.AppendKeyTo(key[:0])
			buf = binary.AppendUvarint(buf, uint64(len(key)))
			buf = append(buf, key...)
			buf = binary.AppendUvarint(buf, uint64(factPolys[k]))
			k++
		}
	}
	return buf
}

// ReadDB materializes a database from a snapshot AppendDB wrote, read from
// r. Each polynomial table entry is rebuilt and interned exactly once, then
// shared by every fact that references it. Bytes AppendDB never writes fail
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
// checked against the bytes left before it sizes anything — an entry of
// any section takes at least one byte per counted item, two for monomials,
// monomial variables, predicates and facts — and the rules of ReadDB are
// checked as they are read, so hostile bytes fail r instead of panicking or
// allocating without bound.
func walkSnapshot(r *codec.Reader, db *DB) DBStats {
	var stats DBStats
	before := r.Len()

	nVars := r.Count("variable", 1)
	vars := make([]provenance.Token, 0, nVars)
	var prev string
	for i := 0; i < nVars && r.Err() == nil; i++ {
		v := r.Str()
		if i > 0 && prev >= v {
			r.Fail("variables out of order")
		}
		prev = v
		vars = append(vars, provenance.Mint(provenance.Var(v)))
	}
	used := make([]bool, nVars)
	stats.Vars = len(vars)

	nPolys := r.Count("polynomial", 1)
	table := make([]provenance.Poly, 0, nPolys)
	hashes := make(map[uint64]struct{}, nPolys)
	// The polynomials are tiny, numerous, and all long-lived together once
	// the table retains them, so their storage comes from one arena.
	var arena provenance.Arena
	for i := 0; i < nPolys && r.Err() == nil; i++ {
		nMonos := r.Count("monomial", 2)
		arena.Begin(nMonos)
		for j := 0; j < nMonos && r.Err() == nil; j++ {
			if coef := r.Uvarint(); coef == 0 && r.Err() == nil {
				r.Fail("zero coefficient")
			}
			nToks := r.Count("monomial variable", 2)
			for k := 0; k < nToks && r.Err() == nil; k++ {
				vi, pow := r.Uvarint(), r.Uvarint()
				switch {
				case r.Err() != nil:
				case vi >= uint64(len(vars)):
					r.Fail("variable index %d out of range", vi)
				case pow != 1:
					r.Fail("power %d: a witness holds each variable once", pow)
				default:
					used[vi] = true
					arena.Add(vars[vi])
				}
			}
			arena.End()
		}
		if r.Err() != nil {
			break
		}
		p, err := arena.Poly()
		if err != nil {
			r.Fail("polynomial %d: %w", i, err)
			break
		}
		// AppendDB writes each distinct polynomial once. A repeated hash is
		// a repeated entry or, all but never, a collision: compare.
		if _, seen := hashes[p.Hash()]; seen {
			if j := slices.IndexFunc(table, p.Equal); j >= 0 {
				r.Fail("polynomials %d and %d are equal", j, i)
				break
			}
		}
		hashes[p.Hash()] = struct{}{}
		table = append(table, p)
	}
	for i := range used {
		if !used[i] && r.Err() == nil {
			r.Fail("variable %d unused", i)
		}
	}
	stats.PolyNodes = len(table)

	// Polynomial indices are handed out in first-reference order over the
	// fact walk, so a fact may reference an earlier-referenced entry or the
	// next one; at the end every entry must have been referenced.
	nextPoly := 0
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
			pi := r.Uvarint()
			switch {
			case r.Err() != nil:
				continue
			case pi > uint64(nextPoly) || pi >= uint64(len(table)):
				r.Fail("polynomial index %d out of order", pi)
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
					rel.insert(h, t, table[pi])
				}
			}
			stats.Facts++
		}
		stats.Preds++
	}
	if r.Err() == nil && nextPoly != len(table) {
		r.Fail("polynomial %d unreferenced", nextPoly)
	}
	stats.Bytes = before - r.Len()
	return stats
}
