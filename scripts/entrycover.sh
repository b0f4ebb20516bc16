#!/usr/bin/env bash
# entrycover.sh — which code does no entry point run?
# Builds every entry point with coverage over the root module's packages
# (go build -cover -coverpkg, Go 1.20+), runs each with GOCOVERDIR set,
# merges the counters with go tool covdata, and prints the statement
# percentage and every function that no entry point ran (0.0% in
# go tool cover -func). A mechanism on that list either gets an entry
# point or is deleted. The entry points:
#   - cb-bench: every experiment at its quick config (-run all);
#   - the four examples;
#   - cb-cluster in each of its six consistency modes;
#   - the benchmark (benchmark/, a module of its own) with --smoke, as
#     benchmark/run.sh --smoke runs it, but built with coverage.
# Given a <git-ref>, it measures that ref's tree too (unpacked with
# git archive), prints both sides' summary lines, and lists the
# functions that left the unrun list (deleted, or now run) and the ones
# that joined it, before the working tree's full list.
# Runs offline. Everything it writes stays under the git-ignored
# .bench_build/entrycover/ of the checkout; the benchmark's output
# files are not written.
#
# Usage: scripts/entrycover.sh [<git-ref>]
set -euo pipefail

REF=${1:-}
ROOT=$(git rev-parse --show-toplevel)
TMP=$ROOT/.bench_build/entrycover
rm -rf "$TMP"
mkdir -p "$TMP"
trap 'rm -rf "$TMP"' EXIT
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off GOPROXY=off

# measure <tree> <out> runs every entry point of the checkout at <tree>
# and leaves under <out>: summary.txt (the two summary lines) and
# unrun.txt (one "  <file:line:> <function>" line per function no entry
# point ran, file relative to the module root).
measure() (
  tree=$1 out=$2
  mkdir -p "$out/bin" "$out/cov"
  cd "$tree"
  pkgs=$(go list ./... | paste -sd, -)
  build() { # build <output> <dir> <package>; go build warns about every
    # package of the list the binary does not import, so its output is
    # only shown on failure
    if ! go build -C "$2" -cover -coverpkg="$pkgs" -o "$out/bin/$1" "$3" >"$out/log.txt" 2>&1; then
      cat "$out/log.txt" >&2
      exit 1
    fi
  }
  build cb-bench . ./cmd/cb-bench
  build cb-cluster . ./cmd/cb-cluster
  for ex in quickstart retwis gossip predserve; do
    build "$ex" . "./examples/$ex"
  done
  build benchmark benchmark .

  export GOCOVERDIR=$out/cov
  run() { # run <binary> [args...]; the output is only kept on failure
    if ! "$out/bin/$1" "${@:2}" >"$out/log.txt" 2>&1; then
      cat "$out/log.txt" >&2
      echo "entrycover: $* failed in $tree" >&2
      exit 1
    fi
  }
  run cb-bench -run all -parallel 1
  for ex in quickstart retwis gossip predserve; do
    run "$ex"
  done
  for mode in lww dsrr sk mk dsc txn; do
    run cb-cluster -mode "$mode"
  done
  run benchmark --smoke

  go tool covdata textfmt -i "$out/cov" -o "$out/profile.txt"
  go tool cover -func="$out/profile.txt" >"$out/func.txt"
  awk '$NF == "0.0%" {sub("^" m "/", "", $1); printf "  %-48s %s\n", $1, $2}' m="$(go list -m)" "$out/func.txt" >"$out/unrun.txt"
  {
    awk 'NR > 1 {all += $2; if ($3 > 0) ran += $2}
      END {printf "statements run by an entry point: %d of %d (%.1f%%)\n", ran, all, 100 * ran / all}' "$out/profile.txt"
    echo "functions no entry point runs: $(wc -l <"$out/unrun.txt")"
  } >"$out/summary.txt"
)

measure "$ROOT" "$TMP/new"
if [ -z "$REF" ]; then
  cat "$TMP/new/summary.txt" "$TMP/new/unrun.txt"
  exit 0
fi

mkdir -p "$TMP/ref"
git -C "$ROOT" archive "$REF" | tar -x -C "$TMP/ref"
measure "$TMP/ref" "$TMP/old"
echo "$REF:"
sed 's/^/  /' "$TMP/old/summary.txt"
echo "working tree:"
sed 's/^/  /' "$TMP/new/summary.txt"
# A function is named by its file and name: its line moves with any edit
# above it.
names() { awk '{sub(/:[0-9]+:$/, "", $1); print "  " $1 " " $2}' "$1" | LC_ALL=C sort; }
names "$TMP/old/unrun.txt" >"$TMP/old/names.txt"
names "$TMP/new/unrun.txt" >"$TMP/new/names.txt"
LC_ALL=C comm -23 "$TMP/old/names.txt" "$TMP/new/names.txt" >"$TMP/left.txt"
LC_ALL=C comm -13 "$TMP/old/names.txt" "$TMP/new/names.txt" >"$TMP/joined.txt"
echo "left the unrun list (deleted, or now run): $(wc -l <"$TMP/left.txt")"
cat "$TMP/left.txt"
echo "joined the unrun list: $(wc -l <"$TMP/joined.txt")"
cat "$TMP/joined.txt"
echo "functions no entry point runs in the working tree:"
cat "$TMP/new/unrun.txt"
