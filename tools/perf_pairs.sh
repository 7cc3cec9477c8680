#!/bin/sh
# Alternating host-time pairs: commit REV (side A, the base) against
# the working tree (side B).
#
#   tools/perf_pairs.sh REV [pairs] [seconds] [workload...] [-- perf-run-args...]
#
# REV is extracted with `git archive` into a temporary directory, and
# perf.exe is built there and in the working tree.  Each pair runs
# `perf.exe run` once on each side, alternating which side goes first,
# so a slow phase of the host falls on both sides alike.  Each side's
# `run` lines go to its own JSONL in a temporary directory outside the
# repository, printed at the end.  Then the script prints, for every
# workload and end-to-end metric of BENCHMARK.json, in how many pairs B
# beat A, and runs `perf.exe compare A B`, whose gain rule is the one a
# performance claim must pass (perf/README.md).
#
# Defaults: 10 pairs of 12 s, every workload.  Arguments after `--` go
# to both sides' `perf.exe run`, e.g. `-- --seed 5`.  The extracted
# tree is removed on exit; nothing in the repository is written apart
# from the working tree's _build.  Needs git, dune and jq.

set -eu

usage() {
  echo "usage: $0 REV [pairs] [seconds] [workload...] [-- perf-run-args...]" >&2
  exit 2
}

[ $# -ge 1 ] || usage
rev=$1
shift
pairs=10
secs=12
if [ $# -gt 0 ] && [ "$1" != "--" ]; then pairs=$1; shift; fi
if [ $# -gt 0 ] && [ "$1" != "--" ]; then secs=$1; shift; fi
workloads=
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
  workloads="$workloads --workload $1"
  shift
done
[ $# -gt 0 ] && shift # the `--`
case $pairs in '' | *[!0-9]*) usage ;; esac
command -v jq >/dev/null || { echo "$0: needs jq" >&2; exit 2; }

root=$(cd "$(dirname "$0")/.." && pwd)
base=$(mktemp -d)
out=$(mktemp -d)
trap 'rm -rf "$base"' EXIT INT TERM

git -C "$root" archive "$rev" | tar -x -C "$base"
echo "== building perf.exe at $rev and in the working tree"
(cd "$base" && dune build --root . ./perf/perf.exe)
(cd "$root" && dune build --root . ./perf/perf.exe)

# one `perf.exe run` in [tree], its line appended to [jsonl]
side() {
  tree=$1
  jsonl=$2
  shift 2
  # shellcheck disable=SC2086 # $workloads is a list of words
  (cd "$tree" && ./_build/default/perf/perf.exe run --seconds "$secs" \
     $workloads "$@" --out "$out/last.jsonl") >"$out/last.log" 2>&1 ||
    { cat "$out/last.log" >&2; echo "$0: run in $tree failed" >&2; exit 1; }
  cat "$out/last.jsonl" >>"$jsonl"
}

a="$out/A-$rev.jsonl"
b="$out/B-worktree.jsonl"
i=1
while [ "$i" -le "$pairs" ]; do
  if [ $((i % 2)) -eq 1 ]; then
    echo "== pair $i/$pairs: A then B"
    side "$base" "$a" "$@"
    side "$root" "$b" "$@"
  else
    echo "== pair $i/$pairs: B then A"
    side "$root" "$b" "$@"
    side "$base" "$a" "$@"
  fi
  i=$((i + 1))
done
rm -f "$out/last.jsonl" "$out/last.log"

echo "== pairs B won, per end-to-end metric (median of run medians A -> B)"
jq -n -r --slurpfile a "$a" --slurpfile b "$b" \
   --slurpfile spec "$root/BENCHMARK.json" '
  def median: sort | if length == 0 then null
    elif length % 2 == 1 then .[length / 2 | floor]
    else (.[length / 2 - 1] + .[length / 2]) / 2 end;
  ([$a, $b] | map(length) | min) as $n
  | ($a[0].workloads | keys_unsorted[]) as $w
  | $spec[0].end_to_end[] as $m
  | [range(0; $n) as $i
     | [$a[$i], $b[$i]] | map(.workloads[$w].metrics[$m.name].median)] as $ps
  | ($ps | map(select(if $m.better == "higher" then .[1] > .[0]
                      else .[1] < .[0] end)) | length) as $wins
  | "\($w)\t\($m.name)\t\($wins)/\($n)\t\($ps | map(.[0]) | median) -> \($ps | map(.[1]) | median)"'

(cd "$root" && ./_build/default/perf/perf.exe compare "$a" "$b" --spec BENCHMARK.json) ||
  true
echo "runs: $a $b"
