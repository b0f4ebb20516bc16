#!/usr/bin/env bash
# entrycover.sh — which code does no entry point run?
# Builds every entry point with coverage over the root module's packages
# (go build -cover -coverpkg, Go 1.20+), runs each with GOCOVERDIR set,
# merges the counters with go tool covdata, and prints the statement
# percentage, every function that no entry point ran (0.0% in
# go tool cover -func), and each file's count of statements no entry
# point ran, largest first (unrun branches inside live functions show
# there). A mechanism on those lists either gets an entry point or is
# deleted.
# The entry points:
#   - cb-bench: every experiment at its quick config (-run all), and
#     its listing (-list);
#   - the four examples;
#   - cb-cluster in each of its six consistency modes;
#   - the benchmark (benchmark/, a module of its own) with --smoke, as
#     benchmark/run.sh --smoke runs it, but built with coverage.
# The benchmark runs its layer probes only with --trace 1, so it also
# runs --smoke --trace 1, into coverage counters of their own: the
# functions that only that run reaches (the probes keep them alive) are
# printed as a list of their own, and still count as unrun everywhere
# else.
# Given a <git-ref>, it measures that ref's tree too (unpacked with
# git archive), prints both sides' summary lines, and lists the
# functions that left the unrun list (deleted, or now run) and the ones
# that joined it, before the working tree's full list and per-file
# counts.
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
# and leaves under <out>: summary.txt (the two summary lines), files.txt
# (one "  <unrun> of <all>  <file>" line per file with a statement no
# entry point ran, most unrun first), unrun.txt (one
# "  <file:line:> <function>" line per function no entry point ran),
# probeonly.txt (the lines of unrun.txt that the traced benchmark run,
# with its layer probes, does run) and probefiles.txt (one
# "  <statements>  <file>" line per file with statements that only that
# run reaches); files are relative to the module root.
measure() (
  tree=$1 out=$2
  mkdir -p "$out/bin" "$out/cov"
  cd "$tree"
  pkgs=$(go list ./... | paste -sd, -)
  build() { # build <output> <dir> <package> [<more coverpkg>]; go build
    # warns about every package of the list the binary does not import,
    # so its output is only shown on failure
    if ! go build -C "$2" -cover -coverpkg="$pkgs${4:+,$4}" -o "$out/bin/$1" "$3" >"$out/log.txt" 2>&1; then
      cat "$out/log.txt" >&2
      exit 1
    fi
  }
  build cb-bench . ./cmd/cb-bench
  build cb-cluster . ./cmd/cb-cluster
  for ex in quickstart retwis gossip predserve; do
    build "$ex" . "./examples/$ex"
  done
  # A binary writes its counters at exit only if its main package is
  # instrumented, so the benchmark's main is added to the list; the
  # profiles below keep the root module's packages alone.
  build benchmark benchmark . cloudburst/benchmark

  export GOCOVERDIR=$out/cov
  run() { # run <binary> [args...]; the output is only kept on failure
    if ! "$out/bin/$1" "${@:2}" >"$out/log.txt" 2>&1; then
      cat "$out/log.txt" >&2
      echo "entrycover: $* failed in $tree" >&2
      exit 1
    fi
  }
  run cb-bench -run all -parallel 1
  run cb-bench -list
  for ex in quickstart retwis gossip predserve; do
    run "$ex"
  done
  for mode in lww dsrr sk mk dsc txn; do
    run cb-cluster -mode "$mode"
  done
  run benchmark --smoke
  mkdir -p "$out/covprobe"
  export GOCOVERDIR=$out/covprobe
  run benchmark --smoke --trace 1

  go tool covdata textfmt -i "$out/cov" -pkg="$pkgs" -o "$out/profile.txt"
  go tool cover -func="$out/profile.txt" >"$out/func.txt"
  awk '$NF == "0.0%" {sub("^" m "/", "", $1); printf "  %-48s %s\n", $1, $2}' m="$(go list -m)" "$out/func.txt" >"$out/unrun.txt"
  go tool covdata textfmt -i "$out/covprobe" -pkg="$pkgs" -o "$out/probeprofile.txt"
  go tool cover -func="$out/probeprofile.txt" >"$out/probefunc.txt"
  awk 'NR == FNR {if ($NF != "0.0%") ran[$1 " " $2]; next}
    $NF == "0.0%" && ($1 " " $2) in ran {sub("^" m "/", "", $1); printf "  %-48s %s\n", $1, $2}' \
    m="$(go list -m)" "$out/probefunc.txt" "$out/func.txt" >"$out/probeonly.txt"
  awk 'FNR == 1 {next}
    NR == FNR {probe[$1] += $3; next}
    {ran[$1] += $3; n[$1] = $2}
    END {for (b in n) if (ran[b] == 0 && probe[b] > 0) {f = b; sub(/:[^:]*$/, "", f); sub("^" m "/", "", f); only[f] += n[b]}
      for (f in only) printf "  %5d  %s\n", only[f], f}' \
    m="$(go list -m)" "$out/probeprofile.txt" "$out/profile.txt" | LC_ALL=C sort -k1,1nr -k2,2 >"$out/probefiles.txt"
  # A profile line is "<file>:<start>,<end> <statements> <count>".
  awk 'NR > 1 {f = $1; sub(/:[^:]*$/, "", f); sub("^" m "/", "", f); all[f] += $2; if ($3 == 0) unrun[f] += $2}
    END {for (f in unrun) if (unrun[f] > 0) printf "  %5d of %5d  %s\n", unrun[f], all[f], f}' \
    m="$(go list -m)" "$out/profile.txt" | LC_ALL=C sort -k1,1nr -k4,4 >"$out/files.txt"
  {
    awk 'NR > 1 {all += $2; if ($3 > 0) ran += $2}
      END {printf "statements run by an entry point: %d of %d (%.1f%%)\n", ran, all, 100 * ran / all}' "$out/profile.txt"
    echo "functions no entry point runs: $(wc -l <"$out/unrun.txt")"
  } >"$out/summary.txt"
)

# probeonly <out> prints the functions of <out>'s unrun list that only the
# benchmark's layer probes run, and each file's count of such statements.
probeonly() {
  echo "functions no entry point runs but the benchmark's layer probes do (--smoke --trace 1; counted as unrun above): $(wc -l <"$1/probeonly.txt")"
  cat "$1/probeonly.txt"
  echo "statements no entry point runs but the layer probes do, by file:"
  cat "$1/probefiles.txt"
}

measure "$ROOT" "$TMP/new"
if [ -z "$REF" ]; then
  cat "$TMP/new/summary.txt" "$TMP/new/unrun.txt"
  echo "statements no entry point runs, by file:"
  cat "$TMP/new/files.txt"
  probeonly "$TMP/new"
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
echo "statements no entry point runs in the working tree, by file:"
cat "$TMP/new/files.txt"
probeonly "$TMP/new"
