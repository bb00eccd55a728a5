package provenance

import (
	"cmp"
	"encoding/binary"
	"slices"

	"orchestra/internal/codec"
)

// The polynomial table is the one binary form of provenance in a durable
// value (DESIGN.md §13): a section writes its annotations once each ahead
// of its content, which then carries one uvarint index per annotation.
// Layout (unsigned varints, length-prefixed strings):
//
//	varCount, then each variable name (sorted ascending)
//	polyCount, then each polynomial: monoCount ·
//	    { coef, varCount, { varIndex, pow }* }*
//
// Entries are distinct by content and numbered in first-reference order
// over the section's walk, so an index names an entry referenced before or
// the next one, and every entry is referenced. Equal annotations share one
// entry, and one interned node after reading. The coefficient and power
// slots date from N[X]: the writer puts 1 in both, the reader takes any
// coefficient ≥ 1 as presence and refuses a power other than 1. An entry
// with no monomials is the zero polynomial.

// TableWriter collects a value's annotations in first-reference order.
type TableWriter struct {
	table    []Poly
	sameHash []int          // the entry before i with table[i]'s hash, or -1
	byHash   map[uint64]int // each hash's last entry
	vars     map[Token]int
}

// NewTableWriter returns a writer with room for n distinct annotations.
func NewTableWriter(n int) *TableWriter {
	return &TableWriter{
		table:    make([]Poly, 0, n),
		sameHash: make([]int, 0, n),
		byHash:   make(map[uint64]int, n),
		vars:     map[Token]int{},
	}
}

// Index returns p's table index, adding p as the next entry when no entry
// equals it. A writer walks its annotations twice: once calling Index to
// build the table, and after AppendTable again, to write the indices.
func (w *TableWriter) Index(p Poly) int {
	h := p.Hash()
	i, ok := w.byHash[h]
	if !ok {
		i = -1
	}
	for j := i; j >= 0; j = w.sameHash[j] {
		if w.table[j].Equal(p) {
			return j
		}
	}
	w.byHash[h] = len(w.table)
	w.sameHash = append(w.sameHash, i)
	w.table = append(w.table, p)
	for _, x := range p.Tokens() {
		w.vars[x] = 0
	}
	return len(w.table) - 1
}

// AppendTable appends the variable and polynomial tables to buf. Every
// annotation the value references must have been added by then.
func (w *TableWriter) AppendTable(buf []byte) []byte {
	vars := make([]Token, 0, len(w.vars))
	for t := range w.vars {
		vars = append(vars, t)
	}
	slices.SortFunc(vars, func(a, b Token) int { return cmp.Compare(a.Var(), b.Var()) })
	buf = binary.AppendUvarint(buf, uint64(len(vars)))
	for i, t := range vars {
		w.vars[t] = i
		buf = codec.AppendString(buf, string(t.Var()))
	}
	buf = binary.AppendUvarint(buf, uint64(len(w.table)))
	for _, p := range w.table {
		buf = binary.AppendUvarint(buf, uint64(p.NumMonomials()))
		for i := range p.NumMonomials() {
			m := p.Monomial(i)
			buf = binary.AppendUvarint(buf, 1) // coefficient
			buf = binary.AppendUvarint(buf, uint64(len(m)))
			for _, x := range m {
				buf = binary.AppendUvarint(buf, uint64(w.vars[x]))
				buf = binary.AppendUvarint(buf, 1) // power
			}
		}
	}
	return buf
}

// TableReader is a table read back; it resolves the indices after it.
type TableReader struct {
	table []Poly
	vars  int
	next  int // entries referenced so far
}

// ReadTable reads a table AppendTable wrote from r, interning each entry
// once; the entries are small, numerous and live together, so one Arena
// holds them. Bytes AppendTable never writes fail r: a count the bytes
// left cannot hold (checked before it sizes anything), variables out of
// order or unused, a variable index out of range, a zero coefficient, a
// power other than 1, an entry out of canonical form, two equal entries.
func ReadTable(r *codec.Reader) TableReader {
	nVars := r.Count("variable", 1)
	vars := make([]Token, 0, nVars)
	var prev string
	for i := 0; i < nVars && r.Err() == nil; i++ {
		v := r.Str()
		if i > 0 && prev >= v {
			r.Fail("variables out of order")
		}
		prev = v
		vars = append(vars, Mint(Var(v)))
	}
	used := make([]bool, nVars)

	nPolys := r.Count("polynomial", 1)
	table := make([]Poly, 0, nPolys)
	hashes := make(map[uint64]struct{}, nPolys)
	var arena Arena
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
		// A repeated hash is a repeated entry or, all but never, a
		// collision: compare.
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
	return TableReader{table: table, vars: len(vars)}
}

// Ref reads one index from r and returns its entry: an entry referenced
// before, or the next one. Any other index fails r.
func (t *TableReader) Ref(r *codec.Reader) Poly {
	i := r.Uvarint()
	switch {
	case r.Err() != nil:
		return Poly{}
	case i > uint64(t.next) || i >= uint64(len(t.table)):
		r.Fail("polynomial index %d out of order", i)
		return Poly{}
	case i == uint64(t.next):
		t.next++
	}
	return t.table[i]
}

// Finish, after the section's last index, fails r if an entry was never
// referenced.
func (t *TableReader) Finish(r *codec.Reader) {
	if r.Err() == nil && t.next != len(t.table) {
		r.Fail("polynomial %d unreferenced", t.next)
	}
}

// Len returns the number of entries.
func (t *TableReader) Len() int { return len(t.table) }

// Vars returns the number of variables.
func (t *TableReader) Vars() int { return t.vars }
