package storage

import (
	"errors"
	"testing"
	"testing/quick"

	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

func seqRel() *schema.Relation {
	return schema.MustRelation("S",
		[]schema.Attribute{{Name: "oid", Type: schema.KindInt}, {Name: "pid", Type: schema.KindInt}, {Name: "seq", Type: schema.KindString}},
		"oid", "pid")
}

func seqTuple(oid, pid int64, s string) schema.Tuple {
	return schema.NewTuple(schema.Int(oid), schema.Int(pid), schema.String(s))
}

// TestTableReinsertKeepsWitnessSet: inserting a row again under a witness
// it already holds leaves its annotation as it was (x + x = x), and a new
// witness joins the set.
func TestTableReinsertKeepsWitnessSet(t *testing.T) {
	tbl := NewTable(seqRel())
	tu := seqTuple(1, 2, "ACGT")
	x, y := provenance.NewVar("x"), provenance.NewVar("y")
	for _, step := range []struct {
		prov, want provenance.Poly
	}{{x, x}, {x, x}, {y, x.Add(y)}, {x.Add(y), x.Add(y)}} {
		if err := tbl.Insert(tu, step.prov); err != nil {
			t.Fatal(err)
		}
		if rows := tbl.Rows(); len(rows) != 1 || !rows[0].Prov.Equal(step.want) {
			t.Fatalf("after inserting under %v: rows = %v, want one row annotated %v", step.prov, rows, step.want)
		}
	}
}

func TestTableInsertDelete(t *testing.T) {
	tbl := NewTable(seqRel())
	tu := seqTuple(1, 2, "ACGT")
	if err := tbl.Insert(tu, provenance.NewVar("p1")); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 || !tbl.Contains(tu) {
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

func TestTableKeyViolation(t *testing.T) {
	tbl := NewTable(seqRel())
	if err := tbl.Insert(seqTuple(1, 2, "AAA"), provenance.One()); err != nil {
		t.Fatal(err)
	}
	err := tbl.Insert(seqTuple(1, 2, "BBB"), provenance.One())
	var kv *ErrKeyViolation
	if !errors.As(err, &kv) {
		t.Fatalf("want ErrKeyViolation, got %v", err)
	}
	if kv.Relation != "S" {
		t.Errorf("violation relation = %s", kv.Relation)
	}
	if kv.Error() == "" {
		t.Error("empty error message")
	}
	// Same tuple again is fine (set semantics, provenance merged).
	if err := tbl.Insert(seqTuple(1, 2, "AAA"), provenance.NewVar("x")); err != nil {
		t.Fatal(err)
	}
	row, _ := tbl.Get(seqTuple(1, 2, "AAA"))
	if row.Prov.NumMonomials() != 2 {
		t.Errorf("provenance not merged: %v", row.Prov)
	}
}

func TestTableUpsert(t *testing.T) {
	tbl := NewTable(seqRel())
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
	if tbl.Len() != 1 || !tbl.Contains(seqTuple(1, 2, "BBB")) {
		t.Error("upsert result wrong")
	}
	// Upsert of identical tuple merges provenance, replaces nothing.
	replaced, err = tbl.Upsert(seqTuple(1, 2, "BBB"), provenance.NewVar("y"))
	if err != nil || replaced != nil {
		t.Errorf("identical upsert: replaced=%v err=%v", replaced, err)
	}
}

func TestTableGetByKey(t *testing.T) {
	tbl := NewTable(seqRel())
	tu := seqTuple(7, 8, "CCC")
	if err := tbl.Insert(tu, provenance.One()); err != nil {
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

func TestTableScanEarlyStop(t *testing.T) {
	tbl := NewTable(seqRel())
	for i := int64(0); i < 5; i++ {
		if err := tbl.Insert(seqTuple(i, i, "x"), provenance.One()); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	tbl.Scan(func(Row) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("scan visited %d rows", n)
	}
}

func TestTableValidateOnWrite(t *testing.T) {
	tbl := NewTable(seqRel())
	if err := tbl.Insert(schema.NewTuple(schema.Int(1)), provenance.One()); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := tbl.Upsert(schema.NewTuple(schema.Int(1)), provenance.One()); err == nil {
		t.Error("upsert wrong arity accepted")
	}
}

// Property: insert-then-delete round trips leave a table unchanged.
func TestQuickInsertDeleteRoundTrip(t *testing.T) {
	f := func(oid, pid int64, s string) bool {
		tbl := NewTable(seqRel())
		base := seqTuple(0, 0, "base")
		if err := tbl.Insert(base, provenance.One()); err != nil {
			return false
		}
		tu := seqTuple(oid, pid, s)
		if tu.Equal(base) || (oid == 0 && pid == 0) {
			return true // key collides with base; skip
		}
		if err := tbl.Insert(tu, provenance.One()); err != nil {
			return false
		}
		if !tbl.Delete(tu) {
			return false
		}
		return tbl.Len() == 1 && tbl.Contains(base)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
