#!/usr/bin/env bash
# tablediff.sh — which experiments' tables does the working tree move?
# Every figure table, chaos cell and audit verdict is a byte-exact
# behavioural spec (the simulation is deterministic per seed), so a
# simplification PR proves itself by moving none of them, and any other
# PR by moving only the ones it says it moves. Builds cmd/cb-bench at
# <git-ref> (its tree unpacked with git archive) and at the working tree,
# runs every experiment from -list at runner width 1, strips the
# wall-clock lines, and prints the experiments whose output differs with
# their diffs. Exit 1 if any differ. Each line also shows both sides'
# wall-clock seconds, for information only. Everything it writes stays
# under the git-ignored .bench_build/tablediff/ of the checkout, so it
# runs where git worktree and the system temp directory are off limits.
#
# Usage: scripts/tablediff.sh <git-ref>
set -euo pipefail

REF=${1:?usage: tablediff.sh <git-ref>}
ROOT=$(git rev-parse --show-toplevel)
TMP=$ROOT/.bench_build/tablediff
rm -rf "$TMP"
mkdir -p "$TMP/ref"
trap 'rm -rf "$TMP"' EXIT

git -C "$ROOT" archive "$REF" | tar -x -C "$TMP/ref"
go build -C "$TMP/ref" -o "$TMP/old" ./cmd/cb-bench
go build -C "$ROOT" -o "$TMP/new" ./cmd/cb-bench

moved=0
for exp in $("$TMP/new" -list | awk '{print $1}'); do
  walls=()
  for side in old new; do
    "$TMP/$side" -run "$exp" -parallel 1 >"$TMP/$side.out" 2>&1 || true
    grep -v 'completed in\|runner width' "$TMP/$side.out" >"$TMP/$side.$exp.txt" || true
    walls+=("$(sed -n 's/.*completed in \([0-9.]*s\) of real time.*/\1/p' "$TMP/$side.out")")
  done
  wall="${walls[0]:-?} → ${walls[1]:-?}"
  if cmp -s "$TMP/old.$exp.txt" "$TMP/new.$exp.txt"; then
    printf '%-6s %-18s %s\n' same "$exp" "$wall"
  else
    moved=1
    printf '%-6s %-18s %s\n' MOVED "$exp" "$wall"
    diff "$TMP/old.$exp.txt" "$TMP/new.$exp.txt" | sed 's/^/       /' || true
  fi
done
exit $moved
