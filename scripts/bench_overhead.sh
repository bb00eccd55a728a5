#!/bin/sh
# Instrumentation-overhead gate: runs the BenchmarkOverhead* benchmarks
# (bench_overhead_test.go — incremental maintenance, a join fixpoint and a
# parallel stratum, each built once with the evaluator stats sink off and
# once with it on) COUNT times, and fails when the median of a benchmark's
# on/off time ratio exceeds 1 + OVERHEAD_TOLERANCE percent.
#
#   ./scripts/bench_overhead.sh                       # 3% tolerance
#   OVERHEAD_TOLERANCE=5 ./scripts/bench_overhead.sh
#   BENCHTIME=200x COUNT=7 ./scripts/bench_overhead.sh
#
# Methodology (DESIGN.md §12): every iteration times both arms back to back,
# alternating which goes first, and the benchmark reports the median of the
# per-iteration ratios — machine-load drift moves both arms of a pair alike,
# and an iteration a collection lands on is outvoted. The median over COUNT
# runs then outvotes a run a busy neighbour disturbed throughout.
set -e

tolerance="${OVERHEAD_TOLERANCE:-3}"
benchtime="${BENCHTIME:-200x}"
count="${COUNT:-7}"

dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT
go test -c -o "$dir/overhead.test" .

out=""
i=1
while [ "$i" -le "$count" ]; do
    run="$("$dir/overhead.test" -test.run '^$' -test.bench 'BenchmarkOverhead' -test.benchtime="$benchtime")"
    out="$out
$run"
    i=$((i + 1))
done
printf '%s\n' "$out"

printf '%s\n' "$out" | awk -v tol="$tolerance" -v count="$count" '
/^BenchmarkOverhead/ {
    name = $1
    sub(/-[0-9]+$/, "", name)  # strip the -GOMAXPROCS suffix
    for (f = 2; f < NF; f++) {
        if ($(f + 1) == "on/off") {
            n[name]++
            r[name, n[name]] = $f + 0
        }
    }
}
END {
    fail = 0
    found = 0
    for (name in n) {
        found++
        m = n[name]
        if (m != count) {
            printf "bench_overhead: %s reported %d ratios, want %d\n", name, m, count
            fail = 1
            continue
        }
        for (a = 2; a <= m; a++) {  # insertion sort
            v = r[name, a]
            for (c = a - 1; c >= 1 && r[name, c] > v; c--) r[name, c + 1] = r[name, c]
            r[name, c + 1] = v
        }
        med = (m % 2) ? r[name, (m + 1) / 2] : (r[name, m / 2] + r[name, m / 2 + 1]) / 2
        verdict = "ok"
        if (med > 1 + tol / 100) {
            verdict = "FAIL"
            fail = 1
        }
        printf "bench_overhead: %-30s on/off median=%.3f  (min %.3f, max %.3f)  [%s, tolerance +%s%%]\n",
            name, med, r[name, 1], r[name, m], verdict, tol
    }
    if (found == 0) {
        print "bench_overhead: no on/off ratios found"
        fail = 1
    }
    exit fail
}'
echo "bench_overhead: gate OK (tolerance +${tolerance}%)"
