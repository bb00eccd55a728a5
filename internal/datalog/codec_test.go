package datalog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"orchestra/internal/codec"
	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

// The standalone form of a snapshot: a magic, then AppendDB's section. The
// program embeds the section in larger values and never writes this form;
// the tests use it to exercise the section codec on its own.
const codecMagic = "ODB1"

// ErrBadSnapshot is the sentinel of DecodeDB's and StatDB's failures.
var ErrBadSnapshot = errors.New("datalog: malformed DB snapshot")

func EncodeDB(db *DB) ([]byte, error) {
	return AppendDB([]byte(codecMagic), db), nil
}

// openSnapshot checks the magic and returns a reader over the section.
func openSnapshot(blob []byte) (*codec.Reader, error) {
	if len(blob) < len(codecMagic) || string(blob[:len(codecMagic)]) != codecMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	return codec.NewReader(blob[len(codecMagic):], ErrBadSnapshot), nil
}

func DecodeDB(blob []byte) (*DB, error) {
	r, err := openSnapshot(blob)
	if err != nil {
		return nil, err
	}
	db := ReadDB(r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return db, nil
}

func StatDB(blob []byte) (DBStats, error) {
	r, err := openSnapshot(blob)
	if err != nil {
		return DBStats{}, err
	}
	stats := SkimDB(r)
	stats.Bytes = len(blob)
	return stats, r.Done()
}

// buildCodecDB constructs a database with shared annotations, multi-variable
// monomials, the constant monomial, and several predicates — the shapes the snapshot
// codec must carry exactly.
func buildCodecDB() *DB {
	db := NewDB()
	x := provenance.NewVar("p:1/0")
	y := provenance.NewVar("q:2/1")
	z := provenance.NewVar("r:3/0")
	shared := x.Mul(y).Add(z).Intern()
	db.Set("G", schema.NewTuple(schema.Int(1), schema.Int(2)), shared)
	db.Set("G", schema.NewTuple(schema.Int(2), schema.Int(3)), shared)
	db.Set("G", schema.NewTuple(schema.Int(3), schema.Int(1)), x.Add(provenance.One()).Intern())
	db.Set("H", schema.NewTuple(schema.String("a"), schema.Int(-7)), provenance.One())
	db.Set("H", schema.NewTuple(schema.String("b\x00c"), schema.Int(0)), y)
	db.Set("Empty0", schema.NewTuple(), provenance.One())
	return db
}

func TestCodecRoundTrip(t *testing.T) {
	db := buildCodecDB()
	blob, err := EncodeDB(db)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDB(blob)
	if err != nil {
		t.Fatal(err)
	}
	if want, have := fingerprint(db), fingerprint(got); want != have {
		t.Fatalf("round trip changed the database:\nwant:\n%s\ngot:\n%s", want, have)
	}
	// Provenance equality must be exact (not just same rendering).
	for _, pred := range db.Preds() {
		for _, f := range db.Rel(pred).Facts() {
			gf, ok := got.Rel(pred).Get(f.Tuple)
			if !ok {
				t.Fatalf("%s: %v missing after round trip", pred, f.Tuple)
			}
			if !gf.Prov.Equal(f.Prov) {
				t.Fatalf("%s %v: provenance %s != %s", pred, f.Tuple, gf.Prov, f.Prov)
			}
		}
	}
}

// TestCodecPreservesSharing pins the dedup property: two facts that shared
// one interned annotation before encoding share one node after decoding
// (Poly is a single-pointer struct, so == is node identity).
func TestCodecPreservesSharing(t *testing.T) {
	db := buildCodecDB()
	blob, err := EncodeDB(db)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDB(blob)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := got.Rel("G").Get(schema.NewTuple(schema.Int(1), schema.Int(2)))
	b, _ := got.Rel("G").Get(schema.NewTuple(schema.Int(2), schema.Int(3)))
	if a.Prov != b.Prov {
		t.Fatalf("shared annotation decoded into distinct nodes: %s vs %s", a.Prov, b.Prov)
	}
	stats, err := StatDB(blob)
	if err != nil {
		t.Fatal(err)
	}
	// 5 distinct annotations: shared, x+1, 1, y — and 1 again for Empty0,
	// which dedups with H's constant. Distinct vars: x, y, z.
	if stats.PolyNodes != 4 {
		t.Fatalf("PolyNodes = %d, want 4 (polynomial table must dedup)", stats.PolyNodes)
	}
	if stats.Vars != 3 || stats.Preds != 3 || stats.Facts != 6 || stats.Bytes != len(blob) {
		t.Fatalf("stats = %+v, want Vars 3, Preds 3, Facts 6, Bytes %d", stats, len(blob))
	}
}

// TestCodecOrderIndependent pins that the encoding is a function of logical
// content only: the same fact set inserted in reverse order — with interning
// churn in between — encodes to identical bytes.
func TestCodecOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type entry struct {
		pred string
		t    schema.Tuple
		p    provenance.Poly
	}
	var entries []entry
	for i := 0; i < 64; i++ {
		v := provenance.NewVar(provenance.Var(fmt.Sprintf("p:%d/0", i%7)))
		w := provenance.NewVar(provenance.Var(fmt.Sprintf("q:%d/0", i%5)))
		p := v.Mul(w)
		if i%2 == 0 {
			p = p.Add(provenance.One())
		}
		entries = append(entries, entry{
			pred: fmt.Sprintf("R%d", i%3),
			t:    schema.NewTuple(schema.Int(int64(i)), schema.String(fmt.Sprint(i%4))),
			p:    p.Intern(),
		})
	}
	build := func(order []int) *DB {
		db := NewDB()
		for _, i := range order {
			e := entries[i]
			// Rebuild the polynomial from scratch so the two databases do
			// not share construction history.
			monos := make([]provenance.Monomial, e.p.NumMonomials())
			for j := range monos {
				monos[j] = e.p.Monomial(j)
			}
			db.Set(e.pred, e.t, provenance.FromMonomials(monos))
		}
		return db
	}
	fwd := make([]int, len(entries))
	for i := range fwd {
		fwd[i] = i
	}
	rev := append([]int(nil), fwd...)
	rng.Shuffle(len(rev), func(i, j int) { rev[i], rev[j] = rev[j], rev[i] })
	b1, err := EncodeDB(build(fwd))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := EncodeDB(build(rev))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("encoding depends on insertion order: %d vs %d bytes differ", len(b1), len(b2))
	}
}

func TestCodecRejectsCorruptSnapshots(t *testing.T) {
	db := buildCodecDB()
	blob, err := EncodeDB(db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeDB([]byte("XXXX")); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := DecodeDB(nil); err == nil {
		t.Fatal("empty snapshot accepted")
	}
	for _, cut := range []int{len(blob) / 4, len(blob) / 2, len(blob) - 1} {
		if _, err := DecodeDB(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := DecodeDB(append(append([]byte(nil), blob...), 0x7)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

// snapshot assembles a blob from uvarint-encoded integers and
// length-prefixed strings after the magic.
func snapshot(parts ...any) []byte {
	b := []byte(codecMagic)
	for _, p := range parts {
		switch p := p.(type) {
		case uint64:
			b = binary.AppendUvarint(b, p)
		case int:
			b = binary.AppendUvarint(b, uint64(p))
		case string:
			b = codec.AppendString(b, p)
		}
	}
	return b
}

// TestCodecRejectsHostileSnapshots: counts no remaining bytes could hold,
// and content EncodeDB would never write, are refused with ErrBadSnapshot
// — never a panic, never an allocation sized by the count.
func TestCodecRejectsHostileSnapshots(t *testing.T) {
	x := "i:1"
	key := schema.NewTuple(schema.Int(1)).Key()
	cases := map[string][]byte{
		"var count 2^62":       snapshot(uint64(1 << 62)),
		"var count 2^63":       snapshot(uint64(1 << 63)),
		"poly count 2^63":      snapshot(0, uint64(1<<63)),
		"monomial count 2^62":  snapshot(1, "x", 1, uint64(1<<62)),
		"var-power count 2^63": snapshot(1, "x", 1, 1, 1, uint64(1<<63)),
		"pred count 2^63":      snapshot(0, 0, uint64(1<<63)),
		"fact count 2^62":      snapshot(0, 0, 1, "P", uint64(1<<62)),
		"power 0":              snapshot(1, "x", 1, 1, 1, 1, 0, 0, 1, "P", 1, key, 0),
		"power 2":              snapshot(1, "x", 1, 1, 1, 1, 0, 2, 1, "P", 1, key, 0),
		"power 2^63":           snapshot(1, "x", 1, 1, 1, 1, 0, uint64(1<<63), 1, "P", 1, key, 0),
		"vars not increasing":  snapshot(2, "x", "y", 1, 1, 1, 2, 1, 1, 0, 1, 1, "P", 1, key, 0),
		"zero coefficient":     snapshot(1, "x", 1, 1, 0, 1, 0, 1, 1, "P", 1, key, 0),
		"var table unsorted":   snapshot(2, "y", "x", 1, 1, 1, 2, 0, 1, 1, 1, 1, "P", 1, key, 0),
		"unused var":           snapshot(2, "x", "y", 1, 1, 1, 1, 0, 1, 1, "P", 1, key, 0),
		"duplicate poly":       snapshot(1, "x", 2, 1, 1, 1, 0, 1, 1, 1, 1, 0, 1, 1, "P", 2, key, 0, "3|i:2", 1),
		"duplicate witnesses":  snapshot(1, "x", 2, 1, 1, 1, 0, 1, 1, 2, 1, 0, 1, 1, "P", 2, key, 0, "3|i:2", 1),
		"unreferenced poly":    snapshot(0, 2, 0, 1, 2, 0, 1, "P", 1, key, 0),
		"poly out of order":    snapshot(0, 2, 0, 1, 2, 0, 1, "P", 2, key, 1, "3|i:2", 0),
		"preds unsorted":       snapshot(0, 0, 2, "Q", 0, "P", 0),
		"duplicate tuple":      snapshot(0, 1, 0, 1, "P", 2, key, 0, key, 0),
		"non-canonical key":    snapshot(0, 1, 0, 1, "P", 1, "4|i:01", 0),
		"malformed key":        snapshot(0, 1, 0, 1, "P", 1, "9|"+x, 0),
	}
	for name, blob := range cases {
		_, err := DecodeDB(blob)
		t.Logf("%s: %v", name, err)
		if !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: DecodeDB = %v, want ErrBadSnapshot", name, err)
		}
	}
	// The same assembly, made canonical, is accepted: the cases above fail
	// for the reason they name.
	want, err := DecodeDB(snapshot(1, "x", 1, 1, 1, 1, 0, 1, 1, "P", 1, key, 0))
	if err != nil {
		t.Fatalf("canonical blob refused: %v", err)
	}
	// A coefficient above 1, which an N[X] sum could write, reads as
	// presence: the witness set is the coefficient-1 one.
	got, err := DecodeDB(snapshot(1, "x", 1, 1, 2, 1, 0, 1, 1, "P", 1, key, 0))
	if err != nil {
		t.Fatalf("coefficient 2 refused: %v", err)
	}
	if err := sameFacts(want, got); err != nil {
		t.Fatalf("coefficient 2 decoded differently from coefficient 1: %v", err)
	}
}

// TestCodecKeepsEmptyExtents: a predicate with no facts is part of what
// EncodeDB writes, so decoding must bring the extent back.
func TestCodecKeepsEmptyExtents(t *testing.T) {
	db := buildCodecDB()
	db.Rel("Vacant")
	blob, err := EncodeDB(db)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDB(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Has("Vacant") {
		t.Fatal("empty extent lost in the round trip")
	}
	again, err := EncodeDB(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, blob) {
		t.Fatal("re-encoding a decoded snapshot changed its bytes")
	}
}

// sameFacts reports how a and b differ as sets of (predicate, tuple key,
// provenance) facts, or nil when they hold the same ones. It matches facts
// by key, not by Facts() position: Value.Compare cannot order every pair of
// distinct tuples, so the two sides may sort differently.
func sameFacts(a, b *DB) error {
	if ap, bp := a.Preds(), b.Preds(); fmt.Sprint(ap) != fmt.Sprint(bp) {
		return fmt.Errorf("predicates %v vs %v", ap, bp)
	}
	for _, pred := range a.Preds() {
		ra, rb := a.Rel(pred), b.Rel(pred)
		if ra.Len() != rb.Len() {
			return fmt.Errorf("%s: %d vs %d facts", pred, ra.Len(), rb.Len())
		}
		for _, f := range ra.Facts() {
			key := f.Tuple.Key()
			g, ok := rb.Get(f.Tuple)
			if !ok {
				return fmt.Errorf("%s: %q missing", pred, key)
			}
			if !g.Prov.Equal(f.Prov) {
				return fmt.Errorf("%s %q: provenance %s vs %s", pred, key, f.Prov, g.Prov)
			}
		}
	}
	return nil
}

// TestCodecFloatsCompareCannotOrder: a NaN, and a pair of tuples that differ
// only in 0.0 vs -0.0, are legitimate facts — the float parsers of the REPL
// and the wire codec both accept "NaN" and "-0" — that Value.Compare could
// not put in a strict order before it followed Value.Key. Their snapshot
// must decode and encode in Compare order (-0 < 0 < NaN), and one written
// in the old, tied order must still decode.
func TestCodecFloatsCompareCannotOrder(t *testing.T) {
	db := buildCodecDB()
	x := provenance.NewVar("f:1/0")
	for _, f := range []float64{0, math.Copysign(0, -1), math.NaN(), 1.5, -2} {
		db.Set("F", schema.NewTuple(schema.String("k"), schema.Float(f)), x)
	}
	db.Set("F", schema.NewTuple(schema.Float(math.NaN())), provenance.One())
	blob, err := EncodeDB(db)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDB(blob)
	if err != nil {
		t.Fatalf("DecodeDB refused EncodeDB's snapshot: %v", err)
	}
	if err := sameFacts(db, got); err != nil {
		t.Fatalf("round trip changed the database: %v", err)
	}
	if _, err := StatDB(blob); err != nil {
		t.Fatal(err)
	}
	if again, err := EncodeDB(got); err != nil || !bytes.Equal(again, blob) {
		t.Fatalf("re-encoding moved the floats (err %v)", err)
	}
	old, err := DecodeDB(snapshot(0, 1, 0, 1, "P", 3, "5|f:NaN", 0, "3|f:0", 0, "4|f:-0", 0))
	if err != nil {
		t.Fatalf("DecodeDB refused a snapshot in the old tied order: %v", err)
	}
	var keys []string
	for _, f := range old.Rel("P").Facts() {
		keys = append(keys, f.Tuple.Key())
	}
	if want := []string{"4|f:-0", "3|f:0", "5|f:NaN"}; !slices.Equal(keys, want) {
		t.Fatalf("decoded P = %q, want %q", keys, want)
	}
}

// FuzzDecodeDB: whatever bytes arrive as a snapshot — a corrupted engine
// blob on recovery — DecodeDB refuses them with ErrBadSnapshot or decodes a
// database whose re-encoding decodes to the same database, and never
// panics. The re-encoding need not match the input byte for byte: the
// decoder does not check the order of tuples within an extent (see
// ErrBadSnapshot).
func FuzzDecodeDB(f *testing.F) {
	for _, db := range []*DB{buildCodecDB(), NewDB()} {
		blob, err := EncodeDB(db)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add(snapshot(uint64(1 << 62)))
	f.Add(snapshot(1, "x", 1, 1, 1, 1, 0, 1, 2, "P", 1, "4|i:-1", 0, "Q", 0))
	// Coefficients above 1 (x·2 + 1 and 3) from an N[X] sum.
	f.Add(snapshot(1, "x", 2, 2, 1, 0, 2, 1, 0, 1, 1, 3, 0, 1, "P", 2, "4|i:-1", 0, "3|i:2", 1))
	f.Add(snapshot(0, 1, 0, 1, "P", 3, "5|f:NaN", 0, "3|f:0", 0, "4|f:-0", 0))
	f.Fuzz(func(t *testing.T, blob []byte) {
		db, err := DecodeDB(blob)
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if _, err := StatDB(blob); err != nil {
			t.Fatalf("StatDB refuses what DecodeDB accepts: %v", err)
		}
		again, err := EncodeDB(db)
		if err != nil {
			t.Fatalf("re-encoding: %v", err)
		}
		back, err := DecodeDB(again)
		if err != nil {
			t.Fatalf("DecodeDB refuses its own re-encoding: %v\n%q", err, again)
		}
		if err := sameFacts(db, back); err != nil {
			t.Fatalf("re-encoding changed the database: %v", err)
		}
	})
}
