package exchange

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"orchestra/internal/codec"
	"orchestra/internal/datalog"
	"orchestra/internal/updates"
	"orchestra/internal/workload"
)

// unionFingerprint renders the engine's union database — predicates, tuples,
// and provenance strings — so any state divergence shows as a diff.
func unionFingerprint(e *Engine) string {
	var b strings.Builder
	db := e.UnionDB()
	for _, pred := range db.Preds() {
		b.WriteString(pred)
		b.WriteString(":\n")
		for _, f := range db.Rel(pred).Facts() {
			fmt.Fprintf(&b, "  %v @ %s\n", f.Tuple, f.Prov)
		}
	}
	return b.String()
}

// applyHistory drives a mixed workload: cross-peer inserts that derive
// joined tuples, a modify, and a delete — exercising base tokens, killed
// tokens, and the deletion index.
func applyHistory(t testing.TB, e *Engine) []*Result {
	t.Helper()
	var results []*Result
	txns := []*updates.Transaction{
		txn(workload.Alaska, 1,
			updates.Insert("O", workload.OTuple("mouse", 1)),
			updates.Insert("P", workload.PTuple("p53", 10)),
			updates.Insert("S", workload.STuple(1, 10, "ACGT"))),
		txn(workload.Beijing, 1,
			updates.Insert("S", workload.STuple(1, 10, "TTTT"))),
		txn(workload.Alaska, 2,
			updates.Modify("S", workload.STuple(1, 10, "ACGT"), workload.STuple(1, 10, "GGGG"))),
		txn(workload.Beijing, 2,
			updates.Delete("S", workload.STuple(1, 10, "TTTT"))),
	}
	for _, tx := range txns {
		res, err := e.Apply(context.Background(), tx)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	return results
}

// TestEngineStateRoundTrip pins that SaveState→LoadState reproduces the
// engine exactly: same union database (tuples AND provenance), same applied
// set, and identical behavior on subsequent transactions — including
// deletions, which depend on the restored base tokens, and on a
// deletion index the restored engine builds from its union database while
// the live one has maintained (stale entries and all) since its first
// deletion. It runs at the default witness bound and again at MaxMonomials
// 2, where the cut binds.
func TestEngineStateRoundTrip(t *testing.T) {
	t.Run("default", func(t *testing.T) { checkEngineStateRoundTrip(t, Config{}) })
	t.Run("maxmonomials=2", func(t *testing.T) {
		var st datalog.EvalStats
		checkEngineStateRoundTrip(t, Config{MaxMonomials: 2, Stats: &st})
		if st.Truncations.Load() == 0 {
			t.Error("the witness cut never bound; the history does not test it")
		}
	})
}

func checkEngineStateRoundTrip(t *testing.T, cfg Config) {
	live := fig2EngineWith(t, cfg)
	applyHistory(t, live)
	blob, err := live.SaveState()
	if err != nil {
		t.Fatal(err)
	}

	var restoredStats datalog.EvalStats
	restoredCfg := cfg
	restoredCfg.Stats = &restoredStats
	restored := fig2EngineWith(t, restoredCfg)
	if err := restored.LoadState(blob); err != nil {
		t.Fatal(err)
	}
	if want, got := unionFingerprint(live), unionFingerprint(restored); want != got {
		t.Fatalf("restored union DB differs:\nlive:\n%s\nrestored:\n%s", want, got)
	}
	for _, id := range []updates.TxnID{{Peer: workload.Alaska, Seq: 1}, {Peer: workload.Alaska, Seq: 2},
		{Peer: workload.Beijing, Seq: 1}, {Peer: workload.Beijing, Seq: 2}} {
		if !restored.Applied(id) {
			t.Fatalf("restored engine lost applied txn %s", id)
		}
	}
	if restored.Applied(updates.TxnID{Peer: workload.Crete, Seq: 1}) {
		t.Fatal("restored engine invented an applied txn")
	}

	// Both engines must now translate the same future identically — Beijing
	// deleting an S row it received from Alaska (derived data: the kill set
	// and Affected run first on the restored engine, over the index its first
	// use scans), a delete of a base tuple (kills restored base tokens) and a
	// fresh insert joining against restored state.
	future := []*updates.Transaction{
		txn(workload.Beijing, 3, updates.Delete("S", workload.STuple(1, 10, "GGGG"))),
		txn(workload.Alaska, 3, updates.Delete("O", workload.OTuple("mouse", 1))),
		txn(workload.Beijing, 4, updates.Insert("O", workload.OTuple("rat", 2))),
	}
	if n := restoredStats.TokenIndexBuilds.Load(); n != 0 {
		t.Fatalf("LoadState built the deletion index (%d builds)", n)
	}
	for _, tx := range future {
		cp := *tx
		wantRes, err := live.Apply(context.Background(), &cp)
		if err != nil {
			t.Fatal(err)
		}
		gotRes, err := restored.Apply(context.Background(), tx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(describeResult(wantRes), describeResult(gotRes)) {
			t.Fatalf("txn %s diverged:\nlive: %v\nrestored: %v", tx.ID, describeResult(wantRes), describeResult(gotRes))
		}
		if tx == future[0] && len(gotRes.ExtraDeps[workload.Beijing]) == 0 {
			t.Fatalf("Beijing's delete of derived data found no supporting txn: %v", describeResult(gotRes))
		}
	}
	if want, got := unionFingerprint(live), unionFingerprint(restored); want != got {
		t.Fatalf("union DBs diverged after post-restore traffic:\nlive:\n%s\nrestored:\n%s", want, got)
	}
	if n := restoredStats.TokenIndexBuilds.Load(); n != 1 {
		t.Errorf("restored engine built its deletion index %d times, want 1", n)
	}
}

// describeResult renders a Result deterministically (updates with
// provenance strings plus extra deps) for comparison.
func describeResult(r *Result) map[string][]string {
	out := map[string][]string{}
	for peer, ups := range r.PerPeer {
		for _, u := range ups {
			out[peer] = append(out[peer], fmt.Sprintf("%s @ %s", u, u.Prov))
		}
		for _, id := range r.ExtraDeps[peer] {
			out[peer] = append(out[peer], "dep:"+id.String())
		}
	}
	return out
}

func TestEngineStateRejectsCorruptBlobs(t *testing.T) {
	e := fig2Engine(t)
	applyHistory(t, e)
	blob, err := e.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	fresh := fig2Engine(t)
	refused := func(what string, b []byte) {
		t.Helper()
		if err := fresh.LoadState(b); !errors.Is(err, ErrBadState) {
			t.Fatalf("%s: LoadState = %v, want ErrBadState", what, err)
		}
	}
	refused("bad magic", []byte("nope"))
	// The previous layout carried a token-occurrence section.
	refused("OES1 blob", append([]byte("OES1"), blob[len(stateMagic):]...))
	// Version 2 carried a dead-token section after the union database.
	refused("OES2 blob", oes2Of(t, blob))
	for _, cut := range []int{5, len(blob) / 2, len(blob) - 1} {
		refused(fmt.Sprintf("truncation at %d", cut), blob[:cut])
	}
	refused("trailing garbage", append(append([]byte(nil), blob...), 1))
	// A failed load leaves the engine usable and empty.
	if fresh.Applied(updates.TxnID{Peer: workload.Alaska, Seq: 1}) {
		t.Fatal("failed LoadState mutated the engine")
	}
	if err := fresh.LoadState(blob); err != nil {
		t.Fatal(err)
	}
	r := codec.NewReader(blob[len(stateMagic):], ErrBadState)
	if stats := StatState(r); r.Err() != nil || stats.Facts == 0 || stats.Preds == 0 {
		t.Fatalf("StatState = %+v, %v", stats, r.Err())
	}
}

// oes2Of rewrites a snapshot in the version-2 layout, which had an (here
// empty) dead-token section between the union database and the base
// tokens.
func oes2Of(t testing.TB, blob []byte) []byte {
	t.Helper()
	r := codec.NewReader(blob[len(stateMagic):], ErrBadState)
	if StatState(r); r.Err() != nil {
		t.Fatalf("snapshot without a union-database section: %v", r.Err())
	}
	end := len(blob) - r.Len()
	old := append([]byte("OES2"), blob[len(stateMagic):end]...)
	old = append(old, 0) // no dead tokens
	return append(old, blob[end:]...)
}

// FuzzLoadState: whatever bytes arrive as an engine snapshot — a corrupted
// engine blob on recovery — LoadState refuses them with ErrBadState or
// loads an engine whose SaveState loads again into the same union database,
// base-token map and applied set, and never panics. Seeds are the
// histories above at both witness bounds, an empty engine, and a history in
// the previous layout.
func FuzzLoadState(f *testing.F) {
	empty := fig2EngineWith(f, Config{})
	histories := []*Engine{fig2EngineWith(f, Config{}), fig2EngineWith(f, Config{MaxMonomials: 2})}
	for _, e := range histories {
		applyHistory(f, e)
	}
	for _, e := range append(histories, empty) {
		blob, err := e.SaveState()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		if e == histories[0] {
			f.Add(oes2Of(f, blob))
		}
	}
	// LoadState replaces an engine's whole state (and leaves it untouched on
	// error), so two engines serve every input: building one per input made
	// each run, and so the fuzzer's input minimization, several times slower.
	e, back := fig2EngineWith(f, Config{}), fig2EngineWith(f, Config{})
	f.Fuzz(func(t *testing.T, blob []byte) {
		if err := e.LoadState(blob); err != nil {
			if !errors.Is(err, ErrBadState) {
				t.Fatalf("untyped LoadState error: %v", err)
			}
			return
		}
		again, err := e.SaveState()
		if err != nil {
			t.Fatalf("SaveState of a loaded engine: %v", err)
		}
		if err := back.LoadState(again); err != nil {
			t.Fatalf("LoadState refuses its own SaveState: %v", err)
		}
		if err := sameUnion(e.inc.DB(), back.inc.DB()); err != nil {
			t.Fatalf("save/load changed the union database: %v", err)
		}
		if !reflect.DeepEqual(e.baseTokens, back.baseTokens) || !reflect.DeepEqual(e.applied, back.applied) {
			t.Fatal("save/load changed the base tokens or applied set")
		}
	})
}

// sameUnion compares two databases fact by fact (tuple key, provenance
// Equal): extent order is not compared, since Value.Compare cannot order
// every tuple (see datalog.FuzzDecodeDB).
func sameUnion(a, b *datalog.DB) error {
	if pa, pb := a.Preds(), b.Preds(); !reflect.DeepEqual(pa, pb) {
		return fmt.Errorf("predicates %v vs %v", pa, pb)
	}
	for _, pred := range a.Preds() {
		ra, rb := a.Rel(pred), b.Rel(pred)
		if ra.Len() != rb.Len() {
			return fmt.Errorf("%s: %d facts vs %d", pred, ra.Len(), rb.Len())
		}
		for _, f := range ra.Facts() {
			g, ok := rb.Get(f.Tuple)
			if !ok || !g.Prov.Equal(f.Prov) {
				return fmt.Errorf("%s%v @ %s: got %v (present %v)", pred, f.Tuple, f.Prov, g.Prov, ok)
			}
		}
	}
	return nil
}

// A recovered engine and a never-crashed one run the same join orders: both
// take their plans from the prepared program's store, which rebuilds a plan
// once a relation-size tie it was built on flips, so it does not matter
// that one engine was first planned over an empty union database and the
// other over a restored one.
func TestRecoveredEnginePlansLikeLiveEngine(t *testing.T) {
	ctx := context.Background()
	// More organisms than proteins. With S as the delta, the join mapping's
	// O and P atoms tie on boundness, so relation sizes order them.
	history := []*updates.Transaction{
		txn(workload.Alaska, 1,
			updates.Insert("O", workload.OTuple("mouse", 1)),
			updates.Insert("O", workload.OTuple("rat", 2)),
			updates.Insert("O", workload.OTuple("fly", 3)),
			updates.Insert("P", workload.PTuple("p53", 10))),
		txn(workload.Beijing, 1,
			updates.Insert("O", workload.OTuple("yeast", 4))),
	}
	next := []*updates.Transaction{
		txn(workload.Alaska, 2,
			updates.Insert("S", workload.STuple(1, 10, "ACGT")),
			updates.Insert("S", workload.STuple(2, 10, "GGCC"))),
	}
	live := fig2Engine(t)
	if _, err := live.ApplyAll(ctx, history); err != nil {
		t.Fatal(err)
	}
	blob, err := live.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	recovered := fig2Engine(t)
	if err := recovered.LoadState(blob); err != nil {
		t.Fatal(err)
	}
	for _, e := range []*Engine{live, recovered} {
		if _, err := e.ApplyAll(ctx, next); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := recovered.Plans(), live.Plans(); got != want {
		t.Fatalf("recovered engine plans\n%s\nlive engine plans\n%s", got, want)
	}
	if got, want := unionFingerprint(recovered), unionFingerprint(live); got != want {
		t.Fatalf("recovered union database\n%s\nlive\n%s", got, want)
	}
}
