package storage

import (
	"strings"
	"testing"
	"testing/quick"

	"orchestra/internal/datalog"
	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

// newTable returns an empty keyed view of rel over a DB of its own.
func newTable(rel *schema.Relation) *Table {
	db := datalog.NewDB()
	db.Rel(rel.Name)
	return &Table{rel: rel, db: db}
}

// has reports whether tbl stores the exact tuple.
func has(tbl *Table, tu schema.Tuple) bool {
	_, ok := tbl.Get(tu)
	return ok
}

func seqRel() *schema.Relation {
	return schema.MustRelation("S",
		[]schema.Attribute{{Name: "oid", Type: schema.KindInt}, {Name: "pid", Type: schema.KindInt}, {Name: "seq", Type: schema.KindString}},
		"oid", "pid")
}

func seqTuple(oid, pid int64, s string) schema.Tuple {
	return schema.NewTuple(schema.Int(oid), schema.Int(pid), schema.String(s))
}

// TestTableReinsertKeepsWitnessSet: upserting a row again under a witness
// it already holds leaves its annotation as it was (x + x = x), and a new
// witness joins the set.
func TestTableReinsertKeepsWitnessSet(t *testing.T) {
	tbl := newTable(seqRel())
	tu := seqTuple(1, 2, "ACGT")
	x, y := provenance.NewVar("x"), provenance.NewVar("y")
	for _, step := range []struct {
		prov, want provenance.Poly
	}{{x, x}, {x, x}, {y, x.Add(y)}, {x.Add(y), x.Add(y)}} {
		if _, err := tbl.Upsert(tu, step.prov); err != nil {
			t.Fatal(err)
		}
		if rows := tbl.Rows(); len(rows) != 1 || !rows[0].Prov.Equal(step.want) {
			t.Fatalf("after upserting under %v: rows = %v, want one row annotated %v", step.prov, rows, step.want)
		}
	}
}

func TestTableInsertDelete(t *testing.T) {
	tbl := newTable(seqRel())
	tu := seqTuple(1, 2, "ACGT")
	if _, err := tbl.Upsert(tu, provenance.NewVar("p1")); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 || !has(tbl, tu) {
		t.Error("insert lost")
	}
	if !tbl.Delete(tu) {
		t.Error("delete missed")
	}
	if tbl.Delete(tu) {
		t.Error("double delete succeeded")
	}
	if tbl.Len() != 0 {
		t.Error("table not empty")
	}
}

// TestTableKeyViolation: a key holds one tuple, found by GetByKey; a write
// of a different tuple under it is reported as an *ErrKeyViolation naming
// the relation and both tuples; the same tuple again merges its provenance
// (set semantics).
func TestTableKeyViolation(t *testing.T) {
	tbl := newTable(seqRel())
	if _, err := tbl.Upsert(seqTuple(1, 2, "AAA"), provenance.One()); err != nil {
		t.Fatal(err)
	}
	held, ok := tbl.GetByKey(seqRel().KeyOf(seqTuple(1, 2, "BBB")))
	if !ok || !held.Tuple.Equal(seqTuple(1, 2, "AAA")) {
		t.Fatalf("key holder = %v, %v", held, ok)
	}
	kv := &ErrKeyViolation{Relation: "S", Key: seqRel().KeyOf(held.Tuple), Existing: held.Tuple, New: seqTuple(1, 2, "BBB")}
	if msg := kv.Error(); !strings.Contains(msg, "S") || !strings.Contains(msg, "AAA") || !strings.Contains(msg, "BBB") {
		t.Errorf("violation message %q names neither the relation nor both tuples", msg)
	}
	// Same tuple again is fine (set semantics, provenance merged).
	if _, err := tbl.Upsert(seqTuple(1, 2, "AAA"), provenance.NewVar("x")); err != nil {
		t.Fatal(err)
	}
	row, _ := tbl.Get(seqTuple(1, 2, "AAA"))
	if row.Prov.NumMonomials() != 2 {
		t.Errorf("provenance not merged: %v", row.Prov)
	}
}

func TestTableUpsert(t *testing.T) {
	tbl := newTable(seqRel())
	if _, err := tbl.Upsert(seqTuple(1, 2, "AAA"), provenance.One()); err != nil {
		t.Fatal(err)
	}
	replaced, err := tbl.Upsert(seqTuple(1, 2, "BBB"), provenance.One())
	if err != nil {
		t.Fatal(err)
	}
	if replaced == nil || !replaced.Equal(seqTuple(1, 2, "AAA")) {
		t.Errorf("replaced = %v", replaced)
	}
	if tbl.Len() != 1 || !has(tbl, seqTuple(1, 2, "BBB")) {
		t.Error("upsert result wrong")
	}
	// Upsert of identical tuple merges provenance, replaces nothing.
	replaced, err = tbl.Upsert(seqTuple(1, 2, "BBB"), provenance.NewVar("y"))
	if err != nil || replaced != nil {
		t.Errorf("identical upsert: replaced=%v err=%v", replaced, err)
	}
}

func TestTableGetByKey(t *testing.T) {
	tbl := newTable(seqRel())
	tu := seqTuple(7, 8, "CCC")
	if _, err := tbl.Upsert(tu, provenance.One()); err != nil {
		t.Fatal(err)
	}
	row, ok := tbl.GetByKey(schema.NewTuple(schema.Int(7), schema.Int(8)))
	if !ok || !row.Tuple.Equal(tu) {
		t.Errorf("GetByKey = %v, %v", row, ok)
	}
	if _, ok := tbl.GetByKey(schema.NewTuple(schema.Int(9), schema.Int(9))); ok {
		t.Error("phantom key")
	}
}

func TestTableValidateOnWrite(t *testing.T) {
	tbl := newTable(seqRel())
	if _, err := tbl.Upsert(schema.NewTuple(schema.Int(1)), provenance.One()); err == nil {
		t.Error("upsert wrong arity accepted")
	}
}

// Property: insert-then-delete round trips leave a table unchanged.
func TestQuickInsertDeleteRoundTrip(t *testing.T) {
	f := func(oid, pid int64, s string) bool {
		tbl := newTable(seqRel())
		base := seqTuple(0, 0, "base")
		if _, err := tbl.Upsert(base, provenance.One()); err != nil {
			return false
		}
		tu := seqTuple(oid, pid, s)
		if tu.Equal(base) || (oid == 0 && pid == 0) {
			return true // key collides with base; skip
		}
		if _, err := tbl.Upsert(tu, provenance.One()); err != nil {
			return false
		}
		if !tbl.Delete(tu) {
			return false
		}
		return tbl.Len() == 1 && has(tbl, base)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
