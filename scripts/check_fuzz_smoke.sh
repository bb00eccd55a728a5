#!/bin/sh
# Fuzz-smoke coverage gate: every native fuzz target of the module (a
# `func FuzzXxx(` in a _test.go file outside bench/) must have its line in
# the Makefile's fuzz-smoke recipe, which runs it in its own package, and
# every line there must name a target that exists. A new target cannot
# silently stay out of the smoke runs, and a deleted one cannot leave a
# line that fuzzes nothing.
#
#   ./scripts/check_fuzz_smoke.sh
set -e
cd "$(dirname "$0")/.."

# The recipe's fuzz lines as "dir:Target", one per line.
smoke="$(
    awk '/^fuzz-smoke:/ { on = 1; next } on && !/^\t/ { on = 0 } on' Makefile |
        sed -nE "s|.*-fuzz '\^(Fuzz[A-Za-z0-9_]+)\\$\\$'.* \./([^ ]*[^/ ])/?$|\2:\1|p" | sort
)"

# The targets the test files declare, in the same form.
targets="$(
    find . \( -path ./bench -o -path ./.bench_build -o -path ./testdata \) -prune -o -name '*_test.go' -print |
        while read -r f; do
            dir="$(dirname "$f")"
            grep -oE '^func Fuzz[A-Za-z0-9_]+\(' "$f" | sed -E "s|^func (Fuzz[A-Za-z0-9_]+)\(|${dir#./}:\1|"
        done | sort
)"

missing="$(printf '%s\n' "$targets" | grep -vxF -e "$smoke" || true)"
stale="$(printf '%s\n' "$smoke" | grep -vxF -e "$targets" || true)"
if [ -n "$missing" ] || [ -n "$stale" ]; then
    [ -z "$missing" ] || { echo "fuzz targets missing from the Makefile's fuzz-smoke recipe:"; echo "$missing"; }
    [ -z "$stale" ] || { echo "fuzz-smoke lines naming no fuzz target:"; echo "$stale"; }
    exit 1
fi
echo "fuzz-smoke check OK: $(printf '%s\n' "$targets" | wc -l) targets, each in fuzz-smoke"
