#!/usr/bin/env bash
# perfgate.sh — the perf-regression tripwire. For each benchmark in
# BENCHES it compares ns/op and allocs/op of a fresh scripts/bench.sh
# report against the committed baseline and fails if either is more than
# 25% above it. It takes the minimum across a benchmark's rows, so run
# the benches with -c 2 or more. allocs/op is deterministic to <1% (the
# simulation replays the same schedule) and is the authoritative signal;
# if runner hardware drifts enough to trip ns/op without a code change,
# re-record the baseline from a CI bench artifact.
#
# Usage: scripts/perfgate.sh <current.json> <baseline.json>
set -euo pipefail

CUR=${1:?usage: perfgate.sh <current.json> <baseline.json>}
BASE=${2:?usage: perfgate.sh <current.json> <baseline.json>}
BENCHES="BenchmarkFig5DataLocality BenchmarkFig7Autoscaling BenchmarkFig10Lifecycle BenchmarkFig11Retwis BenchmarkFig13Saturation BenchmarkFig15Txn BenchmarkCodecStructRoundTrip"
LIMIT=1.25

# min_metric <file> <bench> <metric>: minimum value of metric across the
# named benchmark's rows (bench.sh emits one row per -c repetition).
# Rows under "baseline_seed"/"baseline_pr*" blocks are excluded by
# requiring the 4-space indentation bench.sh uses for top-level rows.
min_metric() {
  awk -v bench="$2" -v metric="$3" '
    $0 ~ "^    \\{\"name\": \"" bench "\"" {
      pat = "\"" metric "\": "
      line = $0
      while ((i = index(line, pat)) > 0) {
        v = substr(line, i + length(pat))
        sub(/[,}].*/, "", v)
        if (best == "" || v + 0 < best + 0) best = v
        line = substr(line, i + length(pat))
      }
    }
    END { if (best == "") { exit 1 }; print best }
  ' "$1"
}

fail=0
for bench in $BENCHES; do
  for metric in "ns/op" "allocs/op"; do
    cur=$(min_metric "$CUR" "$bench" "$metric") || { echo "perfgate: $bench $metric missing from $CUR" >&2; exit 2; }
    base=$(min_metric "$BASE" "$bench" "$metric") || { echo "perfgate: $bench $metric missing from $BASE" >&2; exit 2; }
    ok=$(awk -v c="$cur" -v b="$base" -v l="$LIMIT" 'BEGIN { print (c + 0 <= b * l) ? 1 : 0 }')
    ratio=$(awk -v c="$cur" -v b="$base" 'BEGIN { printf "%.3f", c / b }')
    if [ "$ok" = 1 ]; then
      echo "perfgate: $bench $metric OK: $cur vs baseline $base (${ratio}x <= ${LIMIT}x)"
    else
      echo "perfgate: $bench $metric REGRESSED: $cur vs baseline $base (${ratio}x > ${LIMIT}x)" >&2
      fail=1
    fi
  done
done
exit $fail
