#!/usr/bin/env bash
# Same-program check of the repo benchmark (BENCHMARK.json): a change that
# claims to leave the program's results alone must end every workload in
# the state BASE ends it in. BASE is checked out into a temporary git
# worktree; for every workload the script runs
#
#   bash bench/run.sh --workload W --seed 1 --seconds 3 --trace 1
#
# once at BASE and once in the working tree it runs in, and compares the
# final-state digest line, the run's "failed" count, and the traced
# lsm.wal_bytes, exchange.state_bytes and core.checkpoint_bytes. It names
# every difference and exits non-zero if there is one, or if a run fails
# its own verification. A change that moves them on purpose says so.
# Beside them it prints both sides' traced evaluator work counters
# (datalog.probes_per_op, candidates_per_emit, suppressed_frac and
# rounds_per_op), for information only: they get no verdict.
#
#   BASE=HEAD~1 ./scripts/same_program.sh
#   BASE=HEAD~1 WORKLOADS=query-point ./scripts/same_program.sh
#
# Tunables: BASE (HEAD), WORKLOADS (all four workloads).
set -euo pipefail

base="${BASE:-HEAD}"
workloads="${WORKLOADS:-exchange-insert durable-pipeline query-point conflict-churn}"

root="$(git rev-parse --show-toplevel)"
cd "$root"
base_sha="$(git rev-parse --verify "$base^{commit}")"
tmp="$(mktemp -d)"
cleanup() {
    git worktree remove --force "$tmp/base" >/dev/null 2>&1 || true
    rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add --detach "$tmp/base" "$base_sha" >/dev/null

# run SIDE DIR W writes the compared facts of one traced run to
# $tmp/W.SIDE, one "name: value" line each; a run that exits non-zero
# records its exit status too. The work counters go to $tmp/W.SIDE.work.
run() {
    local side="$1" dir="$2" w="$3" log="$tmp/$3.$1.log" status=0
    echo "same_program: $w: $side" >&2
    (cd "$dir" && bash bench/run.sh --workload "$w" --seed 1 --seconds 3 --trace 1) > "$log" 2>&1 || status=$?
    local last
    last="$(tail -n 1 "$log")"
    {
        echo "exit status: $status"
        echo "final state: $(grep -m 1 '^final state' "$log" | sed 's/^final state ([^)]*): //')"
        echo "failed: $(grep -o '"failed":[0-9]*' <<<"$last" | cut -d: -f2)"
        for m in lsm.wal_bytes exchange.state_bytes core.checkpoint_bytes; do
            echo "$m: $(metric "$m" "$last")"
        done
    } > "$tmp/$w.$side"
    for m in probes_per_op candidates_per_emit suppressed_frac rounds_per_op; do
        echo "datalog.$m: $(metric "datalog.$m" "$last")"
    done > "$tmp/$w.$side.work"
}

# metric NAME LINE prints NAME's value in a run's final metrics line.
metric() {
    grep -o "\"$1\":{\"value\":[-+0-9.eE]*" <<<"$2" | sed 's/.*://'
}

bad=0
for w in $workloads; do
    run base "$tmp/base" "$w"
    run tree "$root" "$w"
    same=1
    while IFS= read -r b && IFS= read -r t <&3; do
        if [ "$b" != "$t" ]; then
            echo "same_program: $w: ${b%%: *} differs"
            echo "  base: ${b#*: }"
            echo "  tree: ${t#*: }"
            same=0
        fi
    done < "$tmp/$w.base" 3< "$tmp/$w.tree"
    if ! grep -qx 'exit status: 0' "$tmp/$w.tree" || ! grep -qx 'failed: 0' "$tmp/$w.tree"; then
        echo "same_program: $w: the working tree's run failed its own verification (log: $(tail -n 3 "$tmp/$w.tree.log" | cut -c1-200))"
        same=0
    fi
    if [ "$same" -eq 1 ]; then
        echo "same_program: $w: same; $(grep -v '^exit status' "$tmp/$w.tree" | paste -sd '|' | sed 's/|/; /g')"
    else
        bad=1
    fi
    while IFS= read -r b && IFS= read -r t <&3; do
        echo "same_program: $w: ${b%%: *}: base ${b#*: }, tree ${t#*: }"
    done < "$tmp/$w.base.work" 3< "$tmp/$w.tree.work"
done
if [ "$bad" -ne 0 ]; then
    echo "same_program: FAILED against $base_sha"
    exit 1
fi
echo "same_program: OK against $base_sha"
