#!/usr/bin/env bash
# bench.sh — run the bench_test.go suite, emit a schema-versioned
# BENCH_<n>.json snapshot, and compare it against the newest committed
# BENCH_<n>.json baseline other than the output itself (regression gates
# on BenchmarkFig7Throughput and BenchmarkFig5WeightSweep; see
# cmd/benchjson).
#
# Usage:
#   scripts/bench.sh                  # full run, next free BENCH_<n>.json
#   BENCH=Fig7 scripts/bench.sh       # only benchmarks matching a pattern
#   BENCHTIME=5x scripts/bench.sh     # more iterations for stabler numbers
#   OUT=BENCH_1.json scripts/bench.sh # regenerate a snapshot in place
set -euo pipefail
cd "$(dirname "$0")/.."

pattern=${BENCH:-.}
benchtime=${BENCHTIME:-1x}

out=${OUT:-}
if [ -z "$out" ]; then
    n=1
    while [ -e "BENCH_${n}.json" ]; do n=$((n + 1)); done
    out="BENCH_${n}.json"
fi

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

echo "== go test -bench '$pattern' -benchtime $benchtime" >&2
go test -run '^$' -bench "$pattern" -benchmem -benchtime "$benchtime" -timeout 60m . | tee "$raw"

go run ./cmd/benchjson parse < "$raw" > "$out"
echo "== wrote $out" >&2

base=
n=0
while [ -e "BENCH_${n}.json" ]; do
    if [ "BENCH_${n}.json" != "$out" ]; then base="BENCH_${n}.json"; fi
    n=$((n + 1))
done
if [ -n "$base" ]; then
    echo "== comparing against $base" >&2
    go run ./cmd/benchjson compare "$base" "$out"
fi
