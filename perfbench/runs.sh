#!/usr/bin/env bash
# Runs workloads of the benchmark once per seed and appends each run's
# result line to DIR/<workload>.jsonl, the input of --compare. Run from
# the repository root:
#
#   bash perfbench/runs.sh DIR FIRST_SEED COUNT WORKLOAD...
#   bash perfbench/run.sh --compare DIR_A DIR_B
set -euo pipefail

if [ $# -lt 4 ]; then
	echo "usage: bash perfbench/runs.sh DIR FIRST_SEED COUNT WORKLOAD..." >&2
	exit 2
fi
dir=$1 first=$2 count=$3
shift 3
secs=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
mkdir -p "$dir"
for w in "$@"; do
	for ((s = first; s < first + count; s++)); do
		bash perfbench/run.sh --workload "$w" --seed "$s" --seconds "$secs" --trace 0 | tail -n 1 >>"$dir/$w.jsonl"
	done
done
