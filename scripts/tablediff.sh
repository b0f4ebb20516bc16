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
# -full compares the paper-size configurations (cb-bench -full) instead of
# the quick ones; a comma-separated list of experiments limits the run to
# those, so a change to some paper-size presets can be checked without
# running every experiment at paper size (fig7 alone takes minutes).
#
# Usage: scripts/tablediff.sh [-full] <git-ref> [exp,exp,...]
set -euo pipefail

USAGE='usage: tablediff.sh [-full] <git-ref> [exp,exp,...]'
FULL=()
if [ "${1:-}" = -full ]; then
  FULL=(-full)
  shift
fi
REF=${1:?$USAGE}
EXPS=${2:-}
ROOT=$(git rev-parse --show-toplevel)
TMP=$ROOT/.bench_build/tablediff
rm -rf "$TMP"
mkdir -p "$TMP/ref"
trap 'rm -rf "$TMP"' EXIT

git -C "$ROOT" archive "$REF" | tar -x -C "$TMP/ref"
go build -C "$TMP/ref" -o "$TMP/old" ./cmd/cb-bench
go build -C "$ROOT" -o "$TMP/new" ./cmd/cb-bench

ALL=$("$TMP/new" -list | awk '{print $1}')
EXPS=${EXPS:-$ALL}
for exp in ${EXPS//,/ }; do
  grep -qx -- "$exp" <<<"$ALL" || { echo "tablediff: unknown experiment $exp" >&2; exit 2; }
done

moved=0
for exp in ${EXPS//,/ }; do
  walls=()
  for side in old new; do
    "$TMP/$side" "${FULL[@]}" -run "$exp" -parallel 1 >"$TMP/$side.out" 2>&1 || true
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
