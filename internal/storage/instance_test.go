package storage

import (
	"fmt"
	"sync"
	"testing"

	"orchestra/internal/datalog"
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

// size counts the instance's rows across its relations.
func size(in *Instance) int {
	n := 0
	for _, rel := range in.Schema().Relations() {
		rows, _ := in.Rows(rel.Name)
		n += len(rows)
	}
	return n
}

// contains reports whether the named relation holds the exact tuple.
func contains(in *Instance, rel string, tu schema.Tuple) bool {
	_, ok := in.Table(rel).Get(tu)
	return ok
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
	if _, err := in.Upsert("O", tu, provenance.One()); err != nil {
		t.Fatal(err)
	}
	if !contains(in, "O", tu) {
		t.Error("insert lost")
	}
	if size(in) != 1 {
		t.Errorf("size = %d", size(in))
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
	if _, err := in.Upsert("O", tu, provenance.One()); err != nil {
		t.Fatal(err)
	}
	snap := in.Snapshot()
	// Continue editing the local instance; the snapshot must not change.
	tu2 := schema.NewTuple(schema.String("rat"), schema.Int(2))
	if _, err := in.Upsert("O", tu2, provenance.One()); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Delete("O", tu); err != nil {
		t.Fatal(err)
	}
	if !contains(snap, "O", tu) || contains(snap, "O", tu2) {
		t.Error("snapshot leaked local edits")
	}
}

// TestInstanceDiff checks that Equal sees every tuple-level difference
// between two instances of one schema, and none in provenance alone.
func TestInstanceDiff(t *testing.T) {
	base := NewInstance(sigma1())
	cur := NewInstance(sigma1())
	if !cur.Equal(base) {
		t.Error("empty instances differ")
	}
	a := schema.NewTuple(schema.String("mouse"), schema.Int(1))
	b := schema.NewTuple(schema.String("rat"), schema.Int(2))
	c := schema.NewTuple(schema.String("fly"), schema.Int(3))
	for _, w := range []struct {
		in *Instance
		tu schema.Tuple
	}{{base, a}, {base, b}, {cur, b}, {cur, c}} {
		if _, err := w.in.Upsert("O", w.tu, provenance.One()); err != nil {
			t.Fatal(err)
		}
	}
	if !cur.Equal(cur) || cur.Equal(base) || base.Equal(cur) {
		t.Error("same-size instances with different tuples compare equal")
	}
	if _, err := cur.Delete("O", c); err != nil {
		t.Fatal(err)
	}
	if cur.Equal(base) || base.Equal(cur) {
		t.Error("instances of different sizes compare equal")
	}
	if _, err := cur.Upsert("O", a, provenance.NewVar("x")); err != nil {
		t.Fatal(err)
	}
	if !cur.Equal(base) || !base.Equal(cur) {
		t.Error("instances with the same tuples under different provenance differ")
	}
}

// TestInstanceDiffSchemaMismatch checks that instances of different schemas
// are never equal.
func TestInstanceDiffSchemaMismatch(t *testing.T) {
	other := schema.NewSchema("Σ2")
	other.MustAddRelation(schema.MustRelation("OPS",
		[]schema.Attribute{{Name: "org", Type: schema.KindString}}))
	if NewInstance(sigma1()).Equal(NewInstance(other)) {
		t.Error("instances of different schemas compare equal")
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
				if _, err := in.Upsert("S", tu, provenance.One()); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	// Key-replacing writers, lock-taking readers, and EDB readers (which
	// probe the stored extents in place and build their indexes on them,
	// under the read lock) all run against the inserters: every read path
	// must stay a read.
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
				in.EDB(func(edb *datalog.DB) {
					n := edb.Rel("S").Len()
					if got := len(edb.Rel("S").Lookup(nil, nil)); got != n {
						t.Errorf("EDB scan saw %d of %d facts", got, n)
					}
					edb.Rel("O").Lookup([]int{1}, schema.NewTuple(schema.Int(int64(g))))
				})
			}
		}(g)
	}
	wg.Wait()
	if n := size(in); n != 802 { // 800 S rows, two O keys
		t.Errorf("size = %d, want 802", n)
	}
}
