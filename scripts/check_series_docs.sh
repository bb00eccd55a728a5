#!/bin/sh
# Series/docs gate: the metric inventory in DESIGN.md §12 and the series the
# code registers must name the same set. Series names are stable API (the
# Prometheus endpoint exports them), so a series added without a line in the
# inventory, or an inventory line that outlived its series, fails here.
#
#   ./scripts/check_series_docs.sh
#
# Code side: every string literal passed to a registry's Counter, Gauge or
# Histogram in non-test Go outside bench/, plus the evaluator counters
# metrics.go folds into a snapshot's Counters/Gauges maps. Doc side: every
# back-quoted lower_snake name between "**Metric inventory.**" and
# "**Span taxonomy.**". Span histograms (`<span>_ns`) are named at run time
# and documented as a pattern, so neither side lists them.
set -e
cd "$(dirname "$0")/.."

sources="$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*')"

code="$(
    {
        # shellcheck disable=SC2086
        grep -ohE '\.(Counter|Gauge|Histogram)\("[a-z0-9_]+"\)' $sources
        grep -ohE 'snap\.(Counters|Gauges)\["[a-z0-9_]+"\]' metrics.go
    } | sed -E 's/.*"([a-z0-9_]+)".*/\1/' | sort -u
)"

docs="$(
    awk '/^\*\*Metric inventory\.\*\*/ { on = 1 } /^\*\*Span taxonomy\.\*\*/ { on = 0 } on' DESIGN.md |
        grep -oE '`[a-z][a-z0-9]*(_[a-z0-9]+)+`' | tr -d '`' | sort -u
)"

if [ -z "$code" ] || [ -z "$docs" ]; then
    echo "series-check: found no series in the code or no inventory in DESIGN.md §12" >&2
    exit 1
fi

status=0
for name in $code; do
    if ! printf '%s\n' "$docs" | grep -qx "$name"; then
        echo "series-check: $name is registered in the code but missing from DESIGN.md §12" >&2
        status=1
    fi
done
for name in $docs; do
    if ! printf '%s\n' "$code" | grep -qx "$name"; then
        echo "series-check: $name is listed in DESIGN.md §12 but no code registers it" >&2
        status=1
    fi
done
[ "$status" -eq 0 ] && echo "series-check OK: $(printf '%s\n' "$code" | wc -l | tr -d ' ') series, code and DESIGN.md §12 agree"
exit "$status"
