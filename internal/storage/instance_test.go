package storage

import (
	"fmt"
	"sync"
	"testing"

	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

func sigma1() *schema.Schema {
	s := schema.NewSchema("Σ1")
	s.MustAddRelation(schema.MustRelation("O",
		[]schema.Attribute{{Name: "org", Type: schema.KindString}, {Name: "oid", Type: schema.KindInt}}, "oid"))
	s.MustAddRelation(schema.MustRelation("P",
		[]schema.Attribute{{Name: "prot", Type: schema.KindString}, {Name: "pid", Type: schema.KindInt}}, "pid"))
	s.MustAddRelation(schema.MustRelation("S",
		[]schema.Attribute{{Name: "oid", Type: schema.KindInt}, {Name: "pid", Type: schema.KindInt}, {Name: "seq", Type: schema.KindString}}, "oid", "pid"))
	return s
}

func TestInstanceBasics(t *testing.T) {
	in := NewInstance(sigma1())
	if in.Table("O") == nil || in.Table("P") == nil || in.Table("S") == nil {
		t.Fatal("missing tables")
	}
	if in.Table("missing") != nil {
		t.Error("phantom table")
	}
	tu := schema.NewTuple(schema.String("mouse"), schema.Int(1))
	if err := in.Insert("O", tu, provenance.One()); err != nil {
		t.Fatal(err)
	}
	if !in.Contains("O", tu) {
		t.Error("insert lost")
	}
	if in.Size() != 1 {
		t.Errorf("size = %d", in.Size())
	}
	if err := in.Insert("missing", tu, provenance.One()); err == nil {
		t.Error("insert into unknown relation accepted")
	}
	ok, err := in.Delete("O", tu)
	if err != nil || !ok {
		t.Errorf("delete: %v %v", ok, err)
	}
	if _, err := in.Delete("missing", tu); err == nil {
		t.Error("delete from unknown relation accepted")
	}
	if _, err := in.Upsert("missing", tu, provenance.One()); err == nil {
		t.Error("upsert into unknown relation accepted")
	}
}

func TestInstanceSnapshot(t *testing.T) {
	in := NewInstance(sigma1())
	tu := schema.NewTuple(schema.String("mouse"), schema.Int(1))
	if err := in.Insert("O", tu, provenance.One()); err != nil {
		t.Fatal(err)
	}
	snap := in.Snapshot()
	// Continue editing the local instance; the snapshot must not change.
	tu2 := schema.NewTuple(schema.String("rat"), schema.Int(2))
	if err := in.Insert("O", tu2, provenance.One()); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Delete("O", tu); err != nil {
		t.Fatal(err)
	}
	if !snap.Contains("O", tu) || snap.Contains("O", tu2) {
		t.Error("snapshot leaked local edits")
	}
}

func TestInstanceDiff(t *testing.T) {
	base := NewInstance(sigma1())
	cur := NewInstance(sigma1())
	a := schema.NewTuple(schema.String("mouse"), schema.Int(1))
	b := schema.NewTuple(schema.String("rat"), schema.Int(2))
	c := schema.NewTuple(schema.String("fly"), schema.Int(3))
	if err := base.Insert("O", a, provenance.One()); err != nil {
		t.Fatal(err)
	}
	if err := base.Insert("O", b, provenance.One()); err != nil {
		t.Fatal(err)
	}
	if err := cur.Insert("O", b, provenance.One()); err != nil {
		t.Fatal(err)
	}
	if err := cur.Insert("O", c, provenance.One()); err != nil {
		t.Fatal(err)
	}
	d, err := cur.Diff(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Inserts["O"]) != 1 || !d.Inserts["O"][0].Equal(c) {
		t.Errorf("inserts = %v", d.Inserts)
	}
	if len(d.Deletes["O"]) != 1 || !d.Deletes["O"][0].Equal(a) {
		t.Errorf("deletes = %v", d.Deletes)
	}
	if d.Empty() {
		t.Error("non-empty delta reported empty")
	}
	if d.Count() != 2 {
		t.Errorf("count = %d", d.Count())
	}
	// Diff against self is empty.
	d2, err := cur.Diff(cur)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Empty() || d2.Count() != 0 {
		t.Error("self-diff non-empty")
	}
	if !cur.Equal(cur) || cur.Equal(base) {
		t.Error("Equal wrong")
	}
}

func TestInstanceDiffSchemaMismatch(t *testing.T) {
	other := schema.NewSchema("Σ2")
	other.MustAddRelation(schema.MustRelation("OPS",
		[]schema.Attribute{{Name: "org", Type: schema.KindString}}))
	a := NewInstance(sigma1())
	b := NewInstance(other)
	if _, err := a.Diff(b); err == nil {
		t.Error("cross-schema diff accepted")
	}
}

func TestInstanceConcurrentAccess(t *testing.T) {
	in := NewInstance(sigma1())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tu := schema.NewTuple(schema.Int(int64(g*1000+i)), schema.Int(int64(i)), schema.String("s"))
				if err := in.Insert("S", tu, provenance.One()); err != nil {
					t.Error(err)
					return
				}
				in.Contains("S", tu)
				in.Size()
			}
		}(g)
	}
	// Key-replacing writers, lock-taking readers, and readers of EDB
	// snapshots (which probe the shared extents and build their indexes
	// outside the instance lock) all run against the inserters: every read
	// path must stay a read, and every write must copy a shared extent first.
	for g := 0; g < 2; g++ {
		wg.Add(3)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tu := schema.NewTuple(schema.String(fmt.Sprint("org", i)), schema.Int(int64(g)))
				if _, err := in.Upsert("O", tu, provenance.One()); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				for _, rel := range []string{"O", "P", "S"} {
					if _, ok := in.Rows(rel); !ok {
						t.Errorf("Rows(%s) not ok", rel)
						return
					}
				}
			}
		}()
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				edb, release := in.EDB()
				n := edb.Rel("S").Len()
				if got := len(edb.Rel("S").Lookup(nil, nil)); got != n {
					t.Errorf("EDB scan saw %d of %d facts", got, n)
					return
				}
				edb.Rel("O").Lookup([]int{1}, schema.NewTuple(schema.Int(int64(g))))
				if edb.Rel("view").Len() != 0 { // creating an extent in the EDB is the caller's own write
					t.Error("fresh predicate not empty")
					return
				}
				if g == 0 {
					release() // the other reader never releases: both must be safe
				}
			}
		}(g)
	}
	wg.Wait()
	if in.Size() != 802 { // 800 S rows, two O keys
		t.Errorf("size = %d, want 802", in.Size())
	}
	if edb, _ := in.EDB(); edb.Has("view") {
		t.Error("a write to an EDB created an extent in the instance")
	}
}
