package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
)

// exactRepeat are the per-layer counts that, with one client and no timers,
// must come out identical in every run of the same seed.
var exactRepeat = []string{
	"lsm.wal_fsyncs", "lsm.wal_bytes", "recon.accepted", "recon.rejected", "recon.deferred",
	"storage.rows", "p2p.since_txns",
}

// childRun runs one workload in a fresh process of this same program, the
// way the driver does, and returns its result line. One process per run
// keeps a run's heap and collector state from leaking into the next; inside
// one process set-up times differed by a factor of two depending on which
// workload had run before.
func childRun(w *workloadInfo, seed int64, seconds, trace int) (resultLine, error) {
	var line resultLine
	exe, err := os.Executable()
	if err != nil {
		return line, err
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if jerr := json.Unmarshal(lines[len(lines)-1], &line); jerr != nil {
		if err == nil {
			err = jerr
		}
		return line, fmt.Errorf("%s -trace %d: %w", w.name, trace, err)
	}
	for _, l := range lines {
		if bytes.HasPrefix(l, []byte("FAILED:")) {
			fmt.Println(string(l))
		}
	}
	return line, nil
}

// runAA runs every workload sets times on the same code and the same seed,
// a timed and a traced run each, alternating the workload order between
// sets, and reports per end-to-end metric the median, the quartiles and the
// largest relative spread against the metric's bound. It returns a non-zero
// exit code when a spread exceeds its bound, an exact-repeat count differs
// between sets, or a run fails.
func runAA(sets int, seed int64, seconds int) int {
	values := map[string]map[string][]float64{} // workload -> metric -> per set
	failed := 0
	for s := 0; s < sets; s++ {
		order := make([]*workloadInfo, len(workloads))
		for i := range workloads {
			j := i
			if s%2 == 1 {
				j = len(workloads) - 1 - i
			}
			order[i] = &workloads[j]
		}
		for _, w := range order {
			fmt.Printf("A/A set %d/%d: %s\n", s+1, sets, w.name)
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for trace, names := range [][]metricDef{endToEnd, perLayer} {
				res, err := childRun(w, seed, seconds, trace)
				if err != nil {
					fatal(err)
				}
				failed += res.Failed
				for _, d := range names {
					values[w.name][d.name] = append(values[w.name][d.name], res.Metrics[d.name].Value)
				}
			}
		}
	}
	exceeded := 0
	for _, w := range workloads {
		fmt.Printf("\nA/A %s (%d sets, seed %d)\n", w.name, sets, seed)
		fmt.Printf("  %-22s %12s %12s %12s %9s %7s\n", "metric", "q1", "median", "q3", "spread", "bound")
		for _, d := range endToEnd {
			xs := values[w.name][d.name]
			q1, q2, q3 := quartiles(xs)
			asc := sorted(xs)
			spread := ratio(asc[len(asc)-1]-asc[0], q2)
			mark := ""
			if spread > d.bound {
				mark = "  EXCEEDS BOUND: demote to per-layer as core." + d.name
				exceeded++
			}
			fmt.Printf("  %-22s %12.4f %12.4f %12.4f %8.1f%% %6.0f%%%s\n", d.name, q1, q2, q3, 100*spread, 100*d.bound, mark)
		}
		for _, n := range exactRepeat {
			xs := values[w.name][n]
			same := true
			for _, x := range xs {
				same = same && x == xs[0]
			}
			if !same {
				fmt.Printf("  %-22s differs between sets: %v\n", n, xs)
				exceeded++
			}
		}
	}
	switch {
	case failed > 0:
		fmt.Fprintf(os.Stderr, "bench: %d operations or checks failed\n", failed)
		return 1
	case exceeded > 0:
		fmt.Fprintf(os.Stderr, "bench: %d metrics outside their A/A bound\n", exceeded)
		return 1
	}
	fmt.Println("\nA/A: every end-to-end metric within its bound; exact-repeat counts identical")
	return 0
}
