// Command bench is the repository's one benchmark: four CDSS workloads
// driven through the public SDK from a single client goroutine in a closed
// loop, each measured twice on identical inputs — a timed run for the
// end-to-end metrics and a traced run, plus a staged layer replay, for the
// per-layer metrics and the budget table. See README.md.
//
//	go run . -workload all -seed 1            (from bench/; every metric, both runs)
//	go run . -aa 2 -seed 1                    (repeatability proof)
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1   (driver contract)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 15, "measured-phase length the fixed operation counts are sized for")
		trace    = flag.Int("trace", -1, "driver mode: 0 prints the end-to-end metrics of a timed run, 1 the per-layer metrics of a traced run")
		aa       = flag.Int("aa", 0, "A/A mode: run every workload this many times on the same code and compare")
	)
	flag.Parse()
	// Load is sized for the machine's cores from this one process: one
	// client goroutine, the evaluator's workers use the rest.
	runtime.GOMAXPROCS(runtime.NumCPU())
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	var selected []*workloadInfo
	if *workload == "all" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	} else if w := findWorkload(*workload); w != nil {
		selected = []*workloadInfo{w}
	} else {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	fmt.Printf("bench: closed loop, 1 client goroutine, GOMAXPROCS=%d; every Publish, Checkpoint and Resolve fsyncs (the program's own policy)\n",
		runtime.GOMAXPROCS(0))

	switch {
	case *aa > 0:
		os.Exit(runAA(*aa, *seed, *seconds))
	case *trace >= 0:
		if len(selected) != 1 {
			fatal(fmt.Errorf("-trace needs one -workload"))
		}
		os.Exit(runDriver(selected[0], *seed, *seconds, *trace == 1))
	default:
		failed := 0
		for _, w := range selected {
			res, err := runBoth(w, *seed, *seconds, w.setups)
			if err != nil {
				fatal(err)
			}
			res.print()
			failed += res.failed()
		}
		if failed > 0 {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// bothRuns is a workload's timed run and traced run on identical inputs.
type bothRuns struct {
	info          *workloadInfo
	seed          int64
	seconds       int
	timed, traced *runOut
	e2e, layers   metricSet
	budget        []budgetRow
	coverage      float64
	artifactPath  string
}

// runBoth runs a workload timed and then traced, replays the layers,
// verifies the traced run against the oracles and the timed run against the
// traced one, and writes the traced artifacts.
func runBoth(info *workloadInfo, seed int64, seconds, timedSetups int) (*bothRuns, error) {
	timed, err := runOnce(info, seed, seconds, false, timedSetups)
	if err != nil {
		return nil, fmt.Errorf("%s timed run: %w", info.name, err)
	}
	timed.finish()
	traced, err := runOnce(info, seed, seconds, true, 1)
	if err != nil {
		return nil, fmt.Errorf("%s traced run: %w", info.name, err)
	}
	defer traced.finish()
	verify(traced)
	rp, err := replayLayers(traced)
	if err != nil {
		return nil, fmt.Errorf("%s staged replay: %w", info.name, err)
	}
	res := &bothRuns{info: info, seed: seed, seconds: seconds, timed: timed, traced: traced}
	// The two runs were fed the same stream and must end in the same state,
	// rows and Explain polynomials alike.
	traced.attempted++
	if a, b := timed.plan.digest(), traced.plan.digest(); a != b {
		traced.fail("timed and traced runs were fed different inputs (%s vs %s)", a[:12], b[:12])
	}
	for _, n := range sortedKeys(timed.digests) {
		traced.attempted++
		if timed.digests[n] != traced.digests[n] {
			traced.fail("peer %s: timed run ended at %s, traced run at %s", n, timed.digests[n], traced.digests[n])
		}
	}
	// The staged replay rebuilt the reader layer by layer from the same
	// history; unless it arrives at the reader's instance, the budget table
	// prices something other than what the SDK did.
	traced.attempted++
	if got, want := digestView(traced.plan, instView{rp.twin}), traced.digests[traced.plan.reader]; got != want {
		traced.fail("staged replay rebuilt reader %s as %s, the run ended at %s", traced.plan.reader, got, want)
	}
	res.e2e = endToEndMetrics(timed)
	res.budget, res.coverage = budget(traced, rp)
	res.layers = layerMetrics(timed, traced, rp, res.coverage)
	res.artifactPath, err = writeArtifact(artifact{
		Workload: info.name, Seed: seed, Seconds: seconds, Digest: traced.plan.digest(),
		EndToEnd: res.e2e, PerLayer: res.layers, Budget: res.budget, Coverage: res.coverage,
		Counters: traced.metrics.Counters, SpanCount: len(traced.tr.spans), Spans: traced.tr.spans,
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

func (b *bothRuns) failed() int { return b.timed.failed + b.traced.failed }

func (b *bothRuns) print() {
	w := os.Stdout
	t := b.timed
	fmt.Fprintf(w, "\n== %s  seed=%d  sized for %d s ==\n   why: %s\n", b.info.name, b.seed, b.seconds, b.info.why)
	fmt.Fprintf(w, "   inputs %s; %d rounds, %d transactions, %d queries; timed phase %.2f s, traced phase %.2f s\n",
		t.plan.digest()[:16], len(t.plan.rounds), t.txns, t.queries, t.wallS, b.traced.wallS)
	printMetrics(w, "end-to-end (timed run, WithMetrics(false), no spans)", endToEnd, b.e2e)
	attempted := t.attempted + b.traced.attempted
	fmt.Fprintf(w, "  %-38s %14.4f %-6s  (%d of %d operations and checks failed)\n", "failed_frac",
		ratio(float64(b.failed()), float64(attempted)), "ratio", b.failed(), attempted)
	printMetrics(w, "per-layer (traced run + staged layer replay)", perLayer, b.layers)
	printBudget(w, b.info.name, b.budget, b.coverage)
	fmt.Fprintf(w, "final state (rows with a Skolem-free derivation: count and digest): %s; %d more rows exist only through Skolem representatives\n",
		digestLine(b.traced.digests), b.traced.skolemRows)
	fmt.Fprintf(w, "spans and metrics written to %s\n", b.artifactPath)
	for _, f := range append(t.failures, b.traced.failures...) {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
}

// runDriver is the driver contract: one workload, one kind of run, the
// result object as the last line of standard output.
func runDriver(info *workloadInfo, seed int64, seconds int, traced bool) int {
	var line resultLine
	if !traced {
		o, err := runOnce(info, seed, seconds, false, info.setups)
		if err != nil {
			fatal(err)
		}
		verify(o)
		o.finish()
		m := endToEndMetrics(o)
		printMetrics(os.Stdout, info.name+": end-to-end", endToEnd, m)
		for _, f := range o.failures {
			fmt.Println("FAILED:", f)
		}
		line = resultLine{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: m}
	} else {
		// The traced run's overhead is measured against a timed run of the
		// same inputs, whose final state it must also reproduce.
		res, err := runBoth(info, seed, seconds, 1)
		if err != nil {
			fatal(err)
		}
		res.print()
		line = resultLine{Correct: res.failed() == 0, Attempted: res.timed.attempted + res.traced.attempted,
			Failed: res.failed(), Metrics: res.layers}
	}
	out, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if !line.Correct {
		return 1
	}
	return 0
}
