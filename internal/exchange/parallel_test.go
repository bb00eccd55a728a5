package exchange

import (
	"context"
	"fmt"
	"testing"

	"orchestra/internal/datalog"
	"orchestra/internal/updates"
	"orchestra/internal/workload"
)

// applyScript feeds a fixed transaction script — inserts completing 3-way
// joins, a split-mapping insert, a modification, and deletions of both base
// and derived data — through one engine.
func applyScript(t *testing.T, e *Engine) []*Result {
	t.Helper()
	var results []*Result
	script := []*updates.Transaction{
		txn(workload.Alaska, 1,
			updates.Insert("O", workload.OTuple("mouse", 1)),
			updates.Insert("P", workload.PTuple("p53", 10)),
			updates.Insert("S", workload.STuple(1, 10, "ACGT"))),
		txn(workload.Alaska, 2,
			updates.Insert("O", workload.OTuple("rat", 2)),
			updates.Insert("P", workload.PTuple("brca1", 20))),
		txn(workload.Beijing, 1,
			updates.Insert("S", workload.STuple(2, 20, "TTTT"))),
		txn(workload.Crete, 1,
			updates.Insert("OPS", workload.OPSTuple("fly", "myc", "GATTACA"))),
		txn(workload.Alaska, 3,
			updates.Modify("S", workload.STuple(1, 10, "ACGT"), workload.STuple(1, 10, "GGGG"))),
		txn(workload.Beijing, 2,
			updates.Delete("S", workload.STuple(2, 20, "TTTT"))),
	}
	for _, tx := range script {
		res, err := e.Apply(context.Background(), tx)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	return results
}

// TestParallelEngineMatchesSequential runs the same update-exchange script
// through a sequential and a parallel engine and demands byte-identical
// union databases, per-peer updates, and dependency sets.
func TestParallelEngineMatchesSequential(t *testing.T) {
	seq := fig2Engine(t)
	par, err := NewEngineWith(workload.Figure2Peers(), workload.Figure2Mappings(), Config{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	seqRes := applyScript(t, seq)
	parRes := applyScript(t, par)
	for i := range seqRes {
		if got, want := fmt.Sprint(parRes[i].PerPeer), fmt.Sprint(seqRes[i].PerPeer); got != want {
			t.Errorf("txn %d: per-peer updates differ:\nparallel:   %s\nsequential: %s", i, got, want)
		}
		if got, want := fmt.Sprint(parRes[i].ExtraDeps), fmt.Sprint(seqRes[i].ExtraDeps); got != want {
			t.Errorf("txn %d: extra deps differ: %s vs %s", i, got, want)
		}
	}
	requireUnionDBsEqual(t, seq.UnionDB(), par.UnionDB())
}

// TestParallelismOverridePath pins the Config.Parallelism resolution: an
// unset config (0 → automatic, up to runtime.GOMAXPROCS(0) workers) and an
// explicitly forced-sequential config (negative) must produce
// byte-identical union databases and per-peer results on the same script.
func TestParallelismOverridePath(t *testing.T) {
	auto, err := NewEngineWith(workload.Figure2Peers(), workload.Figure2Mappings(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	forced, err := NewEngineWith(workload.Figure2Peers(), workload.Figure2Mappings(), Config{Parallelism: -1})
	if err != nil {
		t.Fatal(err)
	}
	autoRes := applyScript(t, auto)
	forcedRes := applyScript(t, forced)
	for i := range autoRes {
		if got, want := fmt.Sprint(autoRes[i].PerPeer), fmt.Sprint(forcedRes[i].PerPeer); got != want {
			t.Errorf("txn %d: per-peer updates differ:\nauto:       %s\nsequential: %s", i, got, want)
		}
	}
	requireUnionDBsEqual(t, forced.UnionDB(), auto.UnionDB())
}

func requireUnionDBsEqual(t *testing.T, want, got *datalog.DB) {
	t.Helper()
	if fmt.Sprint(want.Preds()) != fmt.Sprint(got.Preds()) {
		t.Fatalf("predicates differ: %v vs %v", got.Preds(), want.Preds())
	}
	for _, pred := range want.Preds() {
		wf, gf := want.Rel(pred).Facts(), got.Rel(pred).Facts()
		if len(wf) != len(gf) {
			t.Fatalf("%s: %d facts, want %d", pred, len(gf), len(wf))
		}
		for i := range wf {
			if !wf[i].Tuple.Equal(gf[i].Tuple) {
				t.Fatalf("%s fact %d: %v != %v", pred, i, gf[i].Tuple, wf[i].Tuple)
			}
			if !wf[i].Prov.Equal(gf[i].Prov) {
				t.Fatalf("%s %v provenance: %v != %v", pred, wf[i].Tuple, gf[i].Prov, wf[i].Prov)
			}
		}
	}
}

// TestParallelRecompute exercises the from-scratch evaluation path (the
// Recompute baseline) under parallelism. Incremental maintenance and full
// recomputation may legitimately keep different same-degree witness subsets
// once MaxMonomials truncation kicks in, so the parallel recompute is
// compared against a sequential recompute of identical state, where exact
// equality is required.
func TestParallelRecompute(t *testing.T) {
	seq := fig2Engine(t)
	par, err := NewEngineWith(workload.Figure2Peers(), workload.Figure2Mappings(), Config{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	applyScript(t, seq)
	applyScript(t, par)
	seqDB, err := seq.Recompute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	parDB, err := par.Recompute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	requireUnionDBsEqual(t, seqDB, parDB)
}
