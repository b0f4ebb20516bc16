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
# Runs offline. Everything it writes stays under the git-ignored
# .bench_build/entrycover/ of the checkout; the benchmark's output
# files are not written.
#
# Usage: scripts/entrycover.sh
set -euo pipefail

ROOT=$(git rev-parse --show-toplevel)
cd "$ROOT"
TMP=$ROOT/.bench_build/entrycover
rm -rf "$TMP"
mkdir -p "$TMP/bin" "$TMP/cov"
trap 'rm -rf "$TMP"' EXIT
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off GOPROXY=off

pkgs=$(go list ./... | paste -sd, -)
build() { # build <output> <dir> <package>; go build warns about every
  # package of the list the binary does not import, so its output is
  # only shown on failure
  if ! go build -C "$2" -cover -coverpkg="$pkgs" -o "$TMP/bin/$1" "$3" >"$TMP/out.txt" 2>&1; then
    cat "$TMP/out.txt" >&2
    exit 1
  fi
}
build cb-bench . ./cmd/cb-bench
build cb-cluster . ./cmd/cb-cluster
for ex in quickstart retwis gossip predserve; do
  build "$ex" . "./examples/$ex"
done
build benchmark benchmark .

export GOCOVERDIR=$TMP/cov
run() { # run <binary> [args...]; the output is only kept on failure
  if ! "$TMP/bin/$1" "${@:2}" >"$TMP/out.txt" 2>&1; then
    cat "$TMP/out.txt" >&2
    echo "entrycover: $* failed" >&2
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

go tool covdata textfmt -i "$TMP/cov" -o "$TMP/profile.txt"
go tool cover -func="$TMP/profile.txt" >"$TMP/func.txt"
awk 'NR > 1 {all += $2; if ($3 > 0) ran += $2}
  END {printf "statements run by an entry point: %d of %d (%.1f%%)\n", ran, all, 100 * ran / all}' "$TMP/profile.txt"
echo "functions no entry point runs: $(awk '$NF == "0.0%"' "$TMP/func.txt" | wc -l)"
awk '$NF == "0.0%" {sub("^" m "/", "", $1); printf "  %-48s %s\n", $1, $2}' m="$(go list -m)" "$TMP/func.txt"
