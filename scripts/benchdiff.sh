#!/usr/bin/env bash
# benchdiff.sh — the perf gate: is the working tree worse than <git-ref>
# on the repository's benchmark (benchmark/, declared by BENCHMARK.json)?
# Unpacks <git-ref> with git archive under the git-ignored
# .bench_build/benchdiff/, runs every workload at seed 1 with a 5 s
# budget on both trees, and compares them with the benchmark's own
# --compare. Fails on any row marked worse, except host_cpu_s and
# setup_s: one run per side, taken in turn rather than alternated,
# cannot tell host time from a busy neighbour, so those print as a
# trend.
#
# Usage: scripts/benchdiff.sh <git-ref>
set -euo pipefail

REF=${1:?usage: benchdiff.sh <git-ref>}
ROOT=$(git rev-parse --show-toplevel)
TMP=$ROOT/.bench_build/benchdiff
rm -rf "$TMP"
mkdir -p "$TMP/ref"
trap 'rm -rf "$TMP"' EXIT

git -C "$ROOT" archive "$REF" | tar -x -C "$TMP/ref"
bench() { bash "$1/benchmark/run.sh" --workload all --seed 1 --seconds 5 --out "$2" >/dev/null; }
bench "$TMP/ref" "$TMP/old.json"
bench "$ROOT" "$TMP/new.json"
bash "$ROOT/benchmark/run.sh" --compare "$TMP/old.json" "$TMP/new.json" | tee "$TMP/compare.txt" || true
awk '$NF !~ /^(better|within|worse|unresolved)$/ { next }
  { rows++ }
  $NF == "worse" && ($2 == "host_cpu_s" || $2 == "setup_s") { print "trend  " $1 " " $2 ": " $3 " -> " $4 }
  $NF == "worse" && $2 != "host_cpu_s" && $2 != "setup_s" { print "WORSE  " $1 " " $2 ": " $3 " -> " $4; bad++ }
  END { if (!rows) { print "benchdiff: --compare printed no rows"; exit 2 }; exit bad > 0 }' "$TMP/compare.txt"
