package datalog

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"orchestra/internal/provenance"
	"orchestra/internal/schema"
)

// TestEffectiveParallelism pins the Options.Parallelism override path:
// 0 (unset) takes GOMAXPROCS, explicit positive values are taken as-is, and
// negative values force sequential evaluation.
func TestEffectiveParallelism(t *testing.T) {
	if got, want := EffectiveParallelism(0), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("EffectiveParallelism(0) = %d, want runtime.GOMAXPROCS(0) = %d", got, want)
	}
	if got := EffectiveParallelism(1); got != 1 {
		t.Errorf("EffectiveParallelism(1) = %d, want 1", got)
	}
	if got := EffectiveParallelism(7); got != 7 {
		t.Errorf("EffectiveParallelism(7) = %d, want 7", got)
	}
	for _, n := range []int{-1, -8} {
		if got := EffectiveParallelism(n); got != 1 {
			t.Errorf("EffectiveParallelism(%d) = %d, want 1 (forced sequential)", n, got)
		}
	}
	// A request beyond the machine is honored as-is: an explicit worker
	// count is the caller's decision, never a hint.
	if over := runtime.NumCPU() * 4; EffectiveParallelism(over) != over {
		t.Errorf("EffectiveParallelism(%d) = %d, want %d (explicit overcommit honored)",
			over, EffectiveParallelism(over), over)
	}
}

// TestAdaptiveWorkers pins the cost gate: explicit settings bypass it
// entirely, while the automatic setting sizes workers from estimated probe
// work and falls back to sequential on tiny rounds.
func TestAdaptiveWorkers(t *testing.T) {
	ncpu := runtime.GOMAXPROCS(0)
	huge := 1 << 30
	// Explicit settings are honored regardless of round size.
	if got := AdaptiveWorkers(4, 1); got != 4 {
		t.Errorf("AdaptiveWorkers(4, tiny) = %d, want 4 (explicit)", got)
	}
	if over := ncpu * 4; AdaptiveWorkers(over, 1) != over {
		t.Errorf("AdaptiveWorkers(%d, tiny) = %d, want %d (explicit > NumCPU)",
			over, AdaptiveWorkers(over, 1), over)
	}
	for _, n := range []int{-1, -8, 1} {
		if got := AdaptiveWorkers(n, huge); got != 1 {
			t.Errorf("AdaptiveWorkers(%d, huge) = %d, want 1 (forced sequential)", n, got)
		}
	}
	// Automatic: tiny rounds run sequentially (whatever the core count)...
	for _, est := range []int{0, 1, parallelGrain, 2*parallelGrain - 1} {
		if got := AdaptiveWorkers(0, est); got != 1 {
			t.Errorf("AdaptiveWorkers(0, %d) = %d, want 1 (below the gate)", est, got)
		}
	}
	// ...mid-size rounds get one worker per grain...
	if ncpu >= 2 {
		if got := AdaptiveWorkers(0, 2*parallelGrain); got != 2 {
			t.Errorf("AdaptiveWorkers(0, 2 grains) = %d, want 2", got)
		}
	}
	// ...and huge rounds cap at GOMAXPROCS.
	if got := AdaptiveWorkers(0, huge); got != ncpu {
		t.Errorf("AdaptiveWorkers(0, huge) = %d, want GOMAXPROCS = %d", got, ncpu)
	}
}

// TestAdaptiveWorkersHonorsGOMAXPROCS checks the automatic setting caps at
// the goroutines that can run at once, not at the machine's CPU count:
// under GOMAXPROCS=1 a parallel round would pay for buffering and the
// merge barrier without running anything concurrently.
func TestAdaptiveWorkersHonorsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if got := AdaptiveWorkers(0, 1<<30); got != 1 {
		t.Errorf("AdaptiveWorkers(0, huge) under GOMAXPROCS=1 = %d, want 1", got)
	}
	// An explicit count is still the caller's decision.
	if got := AdaptiveWorkers(4, 1<<30); got != 4 {
		t.Errorf("AdaptiveWorkers(4, huge) under GOMAXPROCS=1 = %d, want 4", got)
	}
}

// TestAdaptiveTinyDeltaMatchesSequential checks the Parallelism=0 path on a
// round far below the cost gate produces exactly the sequential result —
// the adaptive setting takes the sequential path on such a round, verified
// on results (DESIGN.md §9 says what measures speed).
func TestAdaptiveTinyDeltaMatchesSequential(t *testing.T) {
	build := func() (*Incremental, error) {
		edb := NewDB()
		for i := 0; i < 6; i++ {
			edb.AddTuple("E", edge(fmt.Sprint("n", i), fmt.Sprint("n", i+1)))
		}
		return NewIncremental(tcProgram(), edb, Options{Provenance: true})
	}
	seq, err := build()
	if err != nil {
		t.Fatal(err)
	}
	adapt, err := build()
	if err != nil {
		t.Fatal(err)
	}
	// Zero value is already Parallelism: 0; make the contrast explicit.
	seq.opts.Parallelism = -1
	adapt.opts.Parallelism = 0
	batch := []Fact2{{Pred: "E", Tuple: edge("n6", "n0"), Prov: provenance.NewVar("loop")}}
	seqCh, err := seq.Insert(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	adaptCh, err := adapt.Insert(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqCh) != len(adaptCh) {
		t.Fatalf("changes: adaptive %d vs sequential %d", len(adaptCh), len(seqCh))
	}
	requireDBsEqual(t, "tiny-delta-adaptive", seq.DB(), adapt.DB())
}

// TestConsecutiveParallelInsertsMatchSequential drives several incremental
// fixpoints through one Incremental at forced parallelism and checks each
// against a sequential twin. This is the -race CI job's probe for executor
// state leaking between rounds or fixpoints.
func TestConsecutiveParallelInsertsMatchSequential(t *testing.T) {
	edb := NewDB()
	for i := 0; i < 4; i++ {
		edb.AddTuple("E", edge(fmt.Sprint("n", i), fmt.Sprint("n", i+1)))
	}
	par, err := NewIncremental(tcProgram(), edb, Options{Provenance: true, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := NewIncremental(tcProgram(), edb, Options{Provenance: true, Parallelism: -1})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		batch := []Fact2{
			{Pred: "E", Tuple: edge(fmt.Sprint("x", round), fmt.Sprint("n", round)),
				Prov: provenance.NewVar(provenance.Var(fmt.Sprint("x", round)))},
			{Pred: "E", Tuple: edge(fmt.Sprint("n", round+4), fmt.Sprint("x", round)),
				Prov: provenance.NewVar(provenance.Var(fmt.Sprint("y", round)))},
		}
		if _, err := par.Insert(context.Background(), batch); err != nil {
			t.Fatalf("round %d parallel: %v", round, err)
		}
		if _, err := seq.Insert(context.Background(), batch); err != nil {
			t.Fatalf("round %d sequential: %v", round, err)
		}
		requireDBsEqual(t, fmt.Sprintf("round-%d", round), seq.DB(), par.DB())
	}
}

// TestParallelMergeRechecksChaseSubsumption pins the merge-time chase
// check of a parallel round. Both rules fire in round 0 against the same
// frozen (empty) T, so the emit-time check cannot see that the first job's
// concrete T(k, v) subsumes the second job's Skolem-padded T(k, f(k)); only
// the re-check at merge can, as the sequential schedule's eager merge does.
func TestParallelMergeRechecksChaseSubsumption(t *testing.T) {
	prog := &Program{Rules: []Rule{
		{ID: "concrete", Head: NewHead("T", HV("k"), HV("v")), Body: []Literal{Pos(NewAtom("A", V("k"), V("v")))}},
		{ID: "padded", Head: NewHead("T", HV("k"), HSkolem("f", V("k"))), Body: []Literal{Pos(NewAtom("B", V("k")))}},
	}}
	edb := NewDB()
	for i := int64(0); i < 4; i++ {
		edb.AddTuple("A", schema.NewTuple(schema.Int(i), schema.Int(10+i)))
		edb.AddTuple("B", schema.NewTuple(schema.Int(i)))
	}
	edb.AddTuple("B", schema.NewTuple(schema.Int(99))) // no concrete subsumer
	opts := Options{Provenance: true, ChaseSubsumption: true, Parallelism: -1}
	seq, err := Eval(prog, edb, opts)
	if err != nil {
		t.Fatal(err)
	}
	var stats EvalStats
	opts.Parallelism, opts.Stats = 4, &stats
	par, err := Eval(prog, edb, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ParallelRounds.Load() == 0 {
		t.Fatal("no parallel round: the test no longer exercises the parallel merge")
	}
	if got := seq.Rel("T").Len(); got != 5 {
		t.Fatalf("sequential T has %d facts, want 5 (4 concrete + 1 padded)", got)
	}
	requireDBsEqual(t, "chase-recheck", seq, par)
}
