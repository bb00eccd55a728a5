package storage

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"orchestra/internal/provenance"
)

// instFingerprint renders an instance's full observable state — relations,
// rows in canonical order, provenance strings — so any aliasing between a
// snapshot and the live instance shows up as a diff.
func instFingerprint(in *Instance) string {
	var b strings.Builder
	for _, r := range in.Schema().Relations() {
		t := in.Table(r.Name)
		if t == nil {
			continue
		}
		b.WriteString(r.Name)
		b.WriteString(":\n")
		for _, row := range t.Rows() {
			fmt.Fprintf(&b, "  %v @ %s\n", row.Tuple, row.Prov)
		}
	}
	return b.String()
}

// TestInstanceSnapshotIsolationProperty drives random insert/upsert/delete
// scripts against an instance with a live snapshot — the query path's
// pattern — and asserts after every step that the frozen snapshot is
// unchanged, including through the key-index lookup path.
func TestInstanceSnapshotIsolationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for round := 0; round < 15; round++ {
		in := NewInstance(sigma1())
		for i := 0; i < 25; i++ {
			k := rng.Int63n(40)
			_, err := in.Upsert("S", seqTuple(k, rng.Int63n(40), "ACGT"), provenance.One())
			if err != nil {
				t.Fatal(err)
			}
		}
		key3 := in.Schema().Relation("S").KeyOf(in.Table("S").Rows()[3].Tuple)
		// Force the key index on the soon-to-be-shared extent, so the frozen
		// side holds bucket state built before the snapshot.
		in.Table("S").GetByKey(key3)
		snap := in.Snapshot()
		want := instFingerprint(snap)
		wantRows := fmt.Sprint(snap.Table("S").GetByKey(key3))

		for step := 0; step < 50; step++ {
			k := rng.Int63n(40)
			switch rng.Intn(3) {
			case 0:
				if _, err := in.Upsert("S", seqTuple(k, rng.Int63n(40), "TTTT"), provenance.One()); err != nil {
					t.Fatal(err)
				}
			case 1: // provenance merge on an identical tuple
				if _, err := in.Upsert("S", seqTuple(k, k, "GGGG"), provenance.NewVar(provenance.Var(fmt.Sprintf("p%d", step)))); err != nil {
					if _, isKey := err.(*ErrKeyViolation); !isKey {
						t.Fatal(err)
					}
				}
			case 2:
				if _, err := in.Delete("S", seqTuple(k, k, "ACGT")); err != nil {
					t.Fatal(err)
				}
			}
			if got := instFingerprint(snap); got != want {
				t.Fatalf("round %d step %d: mutation leaked into snapshot:\nwant:\n%s\ngot:\n%s", round, step, want, got)
			}
		}
		if got := fmt.Sprint(snap.Table("S").GetByKey(key3)); got != wantRows {
			t.Fatalf("round %d: snapshot index rows changed:\nwant %s\ngot  %s", round, wantRows, got)
		}
	}
}

// TestInstanceSnapshotReverseIsolation mutates the snapshot and asserts the
// original instance never observes the changes.
func TestInstanceSnapshotReverseIsolation(t *testing.T) {
	in := NewInstance(sigma1())
	for i := int64(0); i < 20; i++ {
		if _, err := in.Upsert("S", seqTuple(i, i, "ACGT"), provenance.One()); err != nil {
			t.Fatal(err)
		}
	}
	want := instFingerprint(in)
	snap := in.Snapshot()
	for i := int64(0); i < 20; i++ {
		if _, err := snap.Upsert("S", seqTuple(i, i, "CCCC"), provenance.One()); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if _, err := snap.Delete("S", seqTuple(i, i, "CCCC")); err != nil {
				t.Fatal(err)
			}
		}
		if got := instFingerprint(in); got != want {
			t.Fatalf("i=%d: snapshot mutation leaked into original:\nwant:\n%s\ngot:\n%s", i, want, got)
		}
	}
}

// TestSnapshotChainAcrossPublishes models repeated Publish cycles: take a
// snapshot, mutate, snapshot again, and verify every captured view stays
// exactly as captured.
func TestSnapshotChainAcrossPublishes(t *testing.T) {
	in := NewInstance(sigma1())
	var snaps []*Instance
	var wants []string
	for cycle := int64(0); cycle < 6; cycle++ {
		if _, err := in.Upsert("S", seqTuple(cycle, cycle, "ACGT"), provenance.One()); err != nil {
			t.Fatal(err)
		}
		s := in.Snapshot()
		snaps = append(snaps, s)
		wants = append(wants, instFingerprint(s))
		for i, prev := range snaps {
			if got := instFingerprint(prev); got != wants[i] {
				t.Fatalf("cycle %d: snapshot %d drifted:\nwant:\n%s\ngot:\n%s", cycle, i, wants[i], got)
			}
		}
	}
}
