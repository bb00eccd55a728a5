#!/bin/sh
# Reconcile-scaling gate: runs BenchmarkReconcileHistory
# (bench_reconcile_test.go) on a small and a large history of accepted
# transactions and asserts that one in-memory reconciliation round — the
# same sixteen-transaction delta plus one Resolve — costs the same on both
# (DESIGN.md §4.2): ns/op at the large history must stay within MAX_RATIO
# of ns/op at the small one. A round that walks the whole history again
# (the full scan this replaced measured about 10x here) fails it.
#
#   ./scripts/reconcile_scaling.sh                      # 1k vs 16k, 1.5x bar
#   SMALL=512 LARGE=8192 ./scripts/reconcile_scaling.sh
#   BENCHTIME=500x COUNT=5 MAX_RATIO=1.3 ./scripts/reconcile_scaling.sh
#
# Methodology mirrors recovery_scaling.sh: a fixed -benchtime=Nx pins both
# arms to the same iteration count, the two history sizes run interleaved
# so machine-load drift cannot bias one arm, and best-of-COUNT separate
# invocations discards scheduler and GC noise.
set -e

small="${SMALL:-1024}"
large="${LARGE:-16384}"
benchtime="${BENCHTIME:-200x}"
count="${COUNT:-5}"
max_ratio="${MAX_RATIO:-1.5}"

out=""
i=1
while [ "$i" -le "$count" ]; do
    for txns in "$small" "$large"; do
        run="$(ORCH_RECONCILE_HISTORY="$txns" go test -bench '^BenchmarkReconcileHistory$' -benchtime="$benchtime" -count=1 -run '^$' .)"
        line="$(printf '%s\n' "$run" | grep '^BenchmarkReconcileHistory')"
        out="$out
history=$txns $line"
    done
    i=$((i + 1))
done
printf '%s\n' "$out"

printf '%s\n' "$out" | awk -v small="$small" -v large="$large" -v max_ratio="$max_ratio" '
/^history=/ {
    txns = substr($1, 9)
    ns = $4 + 0
    if (!(txns in best) || ns < best[txns]) best[txns] = ns
}
END {
    if (best[small] == 0 || best[large] == 0) {
        print "reconcile_scaling: missing results"
        exit 1
    }
    ratio = best[large] / best[small]
    printf "reconcile_scaling: %d txns = %.0f ns/op, %d txns = %.0f ns/op, ratio %.2fx\n",
        small, best[small], large, best[large], ratio
    if (ratio > max_ratio) {
        printf "reconcile_scaling: FAIL a round over %d txns costs %.2fx one over %d, want <= %.2fx\n",
            large, ratio, small, max_ratio
        exit 1
    }
}'
echo "reconcile_scaling: gate OK (<= ${max_ratio}x from ${small} to ${large} txns)"
