#!/usr/bin/env bash
# tablediff.sh — which experiments' tables does the working tree move?
# Every figure table, chaos cell and audit verdict is a byte-exact
# behavioural spec (the simulation is deterministic per seed), so a
# simplification PR proves itself by moving none of them, and any other
# PR by moving only the ones it says it moves. Builds cmd/cb-bench at
# <git-ref> (its tree unpacked with git archive) and at the working tree,
# runs every experiment from -list at runner width 1, strips the
# wall-clock lines, and prints the experiments whose output differs with
# their diffs. Exit 1 if any differ. Everything it writes stays under the
# git-ignored .bench_build/tablediff/ of the checkout, so it runs where
# git worktree and the system temp directory are off limits.
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
  for side in old new; do
    "$TMP/$side" -run "$exp" -parallel 1 2>&1 |
      grep -v 'completed in\|runner width' >"$TMP/$side.$exp.txt" || true
  done
  if cmp -s "$TMP/old.$exp.txt" "$TMP/new.$exp.txt"; then
    echo "same   $exp"
  else
    moved=1
    echo "MOVED  $exp"
    diff "$TMP/old.$exp.txt" "$TMP/new.$exp.txt" | sed 's/^/       /' || true
  fi
done
exit $moved
