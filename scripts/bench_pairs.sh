#!/usr/bin/env bash
# Parent-vs-change comparison of the repo benchmark (BENCHMARK.json) in
# alternating pairs. BASE is checked out into a temporary git worktree and
# is the parent side; the working tree this script runs in is the change
# side. Each pair runs
#
#   bash bench/run.sh --workload W --seed SEED --seconds SECONDS --trace 0
#
# once per side, the side that goes first alternating from pair to pair, so
# drift of the host's speed moves both sides alike. For every end-to-end
# metric the script prints each side's median [first quartile, third
# quartile] and in how many pairs the change was better, and writes the
# same (plus every run's value) as JSON to OUT. Beside the end-to-end
# metrics it records cpu_s, the user + sys CPU seconds of each run.sh
# invocation (its build, a cache hit after the first, included), which
# counts what the wall-clock metrics miss, such as collector threads; it is
# for information and gets no verdict, because BENCHMARK.json gives it no
# bound.
#
# It then prints a verdict per workload and metric against the metric's
# bound in BENCHMARK.json, taken as that fraction of the parent's median:
# "unresolved" when either side's interquartile range exceeds it (the
# runs spread too widely to tell) — unless every run of the change is
# better than every run of the parent, which is "within" — else "beyond"
# when the change's median is worse than the parent's by more than it,
# else "within". With
# CLAIM="workload:metric ..." it also judges each claimed gain: "met" when
# the change was better in at least nine pairs of ten and its median beats
# the parent's by more than the parent's interquartile range.
#
#   ./scripts/bench_pairs.sh                      # 10 pairs of query-point vs HEAD
#   BASE=HEAD~1 PAIRS=3 WORKLOADS="exchange-insert conflict-churn" ./scripts/bench_pairs.sh
#   FROM=BENCH_30.json CLAIM=query-point:query_p50_ms ./scripts/bench_pairs.sh
#   FROM="$(echo BENCH_*.json)" ./scripts/bench_pairs.sh  # the trajectory
#
# FROM="FILE..." runs nothing: it prints the verdicts for summaries this
# script wrote before (such as the committed BENCH_<n>.json), and, given
# more than one, the trajectory over them: per workload and metric, each
# set's change/parent median ratio and wins. A ratio compares the two
# sides of one set only; the host drifts between sets.
#
# Tunables: BASE (HEAD), PAIRS (10), WORKLOADS (query-point), SEED (1),
# BENCH_SECONDS (15; `make bench-pairs` passes SECONDS), OUT
# (bench-pairs.json), CLAIM (none), FROM (none). Exits non-zero if any run
# failed its own verification; the summary still covers the runs that
# succeeded.
set -euo pipefail

root="$(git rev-parse --show-toplevel)"
cd "$root"

# verdicts FILE... prints, for each summary FILE (one set of pairs), the
# bound verdicts with each metric's change/parent median ratio and wins,
# the set's verdict counts and the CLAIM verdicts; given more than one
# FILE it then prints the trajectory: one row per workload and metric,
# one ratio (wins/pairs) per set. Ratios compare the two sides of one set
# only, because the host drifts between sets.
verdicts() {
    awk -v claims="${CLAIM:-}" '
    FILENAME == ARGV[1] {
        if (/"end_to_end"/) on = 1
        if (/"per_layer"/) on = 0
        if (on && /"name"/) { gsub(/[",]/, "", $2); name = $2 }
        if (on && /"bound"/) { gsub(/[",]/, "", $2); bound[name] = $2 }
        next
    }
    FNR == 1 { endset(); set[++ns] = FILENAME; printf "\n#### %s\n", FILENAME }
    # A workload opens a line of its own; each metric is one line.
    /^    "[^"]*": \{$/ { split($0, f, "\""); w = f[2]; next }
    /"change_better"/ {
        split($0, f, "\""); m = f[2]
        # "better" "lower" ... "median" X, "q1" Y, "q3" Z, "runs" R... (parent,
        # then change); lo[s]/hi[s] are side s'"'"'s smallest and largest run.
        n = split($0, tok, /[:,{}\[\] ]+/)
        k = 0; s = 0; inruns = 0
        for (i = 1; i <= n; i++) {
            if (tok[i] ~ /^"/) inruns = 0
            else if (inruns) {
                x = tok[i] + 0
                if (!(s in lo) || x < lo[s]) lo[s] = x
                if (!(s in hi) || x > hi[s]) hi[s] = x
            }
            if (tok[i] == "\"better\"") better = tok[i + 1]
            if (tok[i] == "\"median\"" || tok[i] == "\"q1\"" || tok[i] == "\"q3\"") v[++k] = tok[i + 1] + 0
            if (tok[i] == "\"runs\"") { inruns = 1; s++ }
            if (tok[i] == "\"change_better\"") wins = tok[i + 1] + 0
            if (tok[i] == "\"pairs\"") pairs = tok[i + 1] + 0
        }
        gsub(/"/, "", better)
        pm = v[1]; piqr = v[3] - v[2]; cm = v[4]; ciqr = v[6] - v[5]
        worse = (better == "lower") ? cm - pm : pm - cm
        # Every change run better than every parent run (sides 1 and 2).
        apart = (better == "lower") ? hi[2] < lo[1] : lo[2] > hi[1]
        delete lo; delete hi
        if (!(m in bound)) next
        allowed = bound[m] * (pm < 0 ? -pm : pm)
        verdict = "within"; note = ""
        if (piqr > allowed || ciqr > allowed) {
            verdict = apart ? "within" : "unresolved"
            if (apart) note = "; spread beyond the bound, but every change run better"
        } else if (worse > allowed) verdict = "beyond"
        count[verdict]++
        if (!(w in shown)) { shown[w] = 1; printf "\n== %s: bound verdicts (change median vs parent median; allowed = bound x parent median) ==\n", w }
        ratio = (pm != 0 ? cm / pm : 0)
        printf "  %-20s %-12s parent %-10.4g change %-10.4g x%-8.3f better %2d/%-3d allowed %-10.4g IQR %.4g / %.4g%s\n",
            m, verdict, pm, cm, ratio, wins, pairs, allowed, piqr, ciqr,
            note
        key = w ":" m
        if (!(key in row)) { row[key] = 1; rows[++nr] = key }
        cell[ns, key] = sprintf("x%.3f %d/%d", ratio, wins, pairs)
        cwins[key] = wins; cpairs[key] = pairs; cgain[key] = -worse; cpiqr[key] = piqr
    }
    # endset closes the open set: its verdict counts and its claims.
    function endset(    nc, c, i, met) {
        if (ns == 0) return
        printf "\n  verdicts: %d within, %d beyond, %d unresolved\n", count["within"], count["beyond"], count["unresolved"]
        nc = split(claims, c, " ")
        for (i = 1; i <= nc; i++) {
            if (!(c[i] in cwins)) { printf "claim %s: no such workload and metric in the summary\n", c[i]; continue }
            met = cwins[c[i]] * 10 >= 9 * cpairs[c[i]] && cgain[c[i]] > cpiqr[c[i]]
            printf "claim %s: %s (better in %d of %d pairs; median gain %.4g vs parent IQR %.4g)\n",
                c[i], (met ? "met" : "not met"), cwins[c[i]], cpairs[c[i]], cgain[c[i]], cpiqr[c[i]]
        }
        delete count; delete shown; delete cwins; delete cpairs; delete cgain; delete cpiqr
    }
    END {
        endset()
        if (ns < 2) exit
        printf "\n#### trajectory: change/parent median ratio and wins per set (ratios compare within a set only)\n"
        printf "  %-36s", "workload:metric"
        for (i = 1; i <= ns; i++) { name = set[i]; sub(/.*\//, "", name); sub(/\.json$/, "", name); printf " %-16s", name }
        printf "\n"
        for (r = 1; r <= nr; r++) {
            printf "  %-36s", rows[r]
            for (i = 1; i <= ns; i++) printf " %-16s", ((i, rows[r]) in cell ? cell[i, rows[r]] : "-")
            printf "\n"
        }
    }' BENCHMARK.json "$@"
}

if [ -n "${FROM:-}" ]; then
    # shellcheck disable=SC2086 # FROM is a list of files
    verdicts $FROM
    exit 0
fi

base="${BASE:-HEAD}"
pairs="${PAIRS:-10}"
workloads="${WORKLOADS:-query-point}"
seed="${SEED:-1}"
seconds="${BENCH_SECONDS:-15}"
out="${OUT:-bench-pairs.json}"

base_sha="$(git rev-parse --verify "$base^{commit}")"
tmp="$(mktemp -d)"
cleanup() {
    git worktree remove --force "$tmp/base" >/dev/null 2>&1 || true
    rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add --detach "$tmp/base" "$base_sha" >/dev/null

# metrics lists "name better" for every end-to-end metric BENCHMARK.json
# declares.
awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
    on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
    on && /"better"/ { gsub(/[",]/, "", $2); print name, $2 }' BENCHMARK.json > "$tmp/metrics"
echo "cpu_s lower" >> "$tmp/metrics"

# run SIDE DIR W PAIR appends "W SIDE PAIR metric value" lines to samples,
# cpu_s among them: bash's time keyword reports the user and sys seconds of
# the run and every process it waited for.
failed=0
run() {
    local side="$1" dir="$2" w="$3" i="$4" log="$tmp/$3.$1.$4.log" TIMEFORMAT='%3U %3S'
    echo "bench_pairs: $w pair $i/$pairs: $side" >&2
    # The inner braces keep the run's own redirections away from time's
    # report, which goes to the outer group's stderr.
    if ! { time { (cd "$dir" && bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0) > "$log" 2>&1; }; } 2> "$tmp/cpu"; then
        echo "bench_pairs: $w pair $i $side FAILED (log: $(tail -n 3 "$log"))" >&2
        failed=$((failed + 1))
        return
    fi
    awk -v w="$w" -v s="$side" -v i="$i" '{ print w, s, i, "cpu_s", $1 + $2 }' "$tmp/cpu" >> "$tmp/samples"
    tail -n 1 "$log" | grep -o '"[a-z0-9_.]*":{"value":[-+0-9.eE]*' |
        sed 's/^"\([^"]*\)":{"value":/\1 /' |
        while read -r m v; do echo "$w $side $i $m $v"; done >> "$tmp/samples"
}

: > "$tmp/samples"
for w in $workloads; do
    for i in $(seq 1 "$pairs"); do
        if [ $((i % 2)) -eq 1 ]; then
            run parent "$tmp/base" "$w" "$i"
            run change "$root" "$w" "$i"
        else
            run change "$root" "$w" "$i"
            run parent "$tmp/base" "$w" "$i"
        fi
    done
done

change_desc="$(git rev-parse HEAD)"
if [ -n "$(git status --porcelain --untracked-files=no)" ]; then
    change_desc="$change_desc+working tree"
fi

awk -v out="$out" -v base="$base_sha" -v change="$change_desc" -v pairs="$pairs" \
    -v seed="$seed" -v seconds="$seconds" -v failed="$failed" -v cpus="$(nproc 2>/dev/null || echo 0)" '
function sortv(a, n,    i, j, x) {
    for (i = 2; i <= n; i++) {
        x = a[i]
        for (j = i - 1; j >= 1 && a[j] > x; j--) a[j + 1] = a[j]
        a[j + 1] = x
    }
}
# q returns the q-quantile of the sorted a[1..n], interpolating linearly.
function q(a, n, p,    h, lo) {
    if (n == 0) return 0
    h = 1 + (n - 1) * p
    lo = int(h)
    if (lo >= n) return a[n]
    return a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
function side(w, m, s,    i, n, a, runs) {
    n = 0
    runs = ""
    for (i = 1; i <= pairs; i++) {
        if ((w, s, i, m) in val) {
            a[++n] = val[w, s, i, m]
            runs = runs (runs == "" ? "" : ", ") val[w, s, i, m]
        }
    }
    sortv(a, n)
    med[s] = q(a, n, 0.5); q1[s] = q(a, n, 0.25); q3[s] = q(a, n, 0.75)
    return sprintf("{\"median\": %.6g, \"q1\": %.6g, \"q3\": %.6g, \"runs\": [%s]}", med[s], q1[s], q3[s], runs)
}
FILENAME == ARGV[1] { better[$1] = $2; order[++nm] = $1; next }
{
    val[$1, $2, $3, $4] = $5
    if (!($1 in seen)) { seen[$1] = 1; wl[++nw] = $1 }
}
END {
    printf "{\n  \"base\": \"%s\",\n  \"change\": \"%s\",\n  \"pairs\": %d,\n  \"seed\": %d,\n  \"seconds\": %d,\n  \"cpus\": %d,\n  \"failed_runs\": %d,\n  \"workloads\": {", base, change, pairs, seed, seconds, cpus, failed > out
    for (k = 1; k <= nw; k++) {
        w = wl[k]
        printf "\n== %s: %d pairs, seed %d, --seconds %d; median [q1, q3] ==\n", w, pairs, seed, seconds
        printf "  %-20s %-34s %-34s %s\n", "metric", "parent", "change", "change better"
        printf "%s\n    \"%s\": {", (k > 1 ? "," : ""), w > out
        for (j = 1; j <= nm; j++) {
            m = order[j]
            ps = side(w, m, "parent")
            cs = side(w, m, "change")
            wins = 0; both = 0
            for (i = 1; i <= pairs; i++) {
                if (!((w, "parent", i, m) in val) || !((w, "change", i, m) in val)) continue
                both++
                p = val[w, "parent", i, m]; c = val[w, "change", i, m]
                if ((better[m] == "lower" && c < p) || (better[m] == "higher" && c > p)) wins++
            }
            printf "  %-20s %-34s %-34s %d of %d\n", m,
                sprintf("%.4g [%.4g, %.4g]", med["parent"], q1["parent"], q3["parent"]),
                sprintf("%.4g [%.4g, %.4g]", med["change"], q1["change"], q3["change"]), wins, both
            printf "%s\n      \"%s\": {\"better\": \"%s\", \"parent\": %s, \"change\": %s, \"change_better\": %d, \"pairs\": %d}",
                (j > 1 ? "," : ""), m, better[m], ps, cs, wins, both > out
        }
        printf "\n    }" > out
    }
    printf "\n  }\n}\n" > out
}' "$tmp/metrics" "$tmp/samples"
echo "bench_pairs: wrote $out"
verdicts "$out"
[ "$failed" -eq 0 ]
