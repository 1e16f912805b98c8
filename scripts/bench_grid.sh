#!/usr/bin/env bash
# Seeds the perf trajectory: runs the golden-trace replay benchmarks of
# internal/mc (the BenchmarkPointReplay scan oracle vs BenchmarkPointFull)
# and the root package's artifact-store grid benchmark
# (BenchmarkGridWarmVsCold) and writes the results as
# BENCH_grid.json at the repo root, so the cold/warm and replay/full
# ratios are tracked across PRs.
#
#   ./scripts/bench_grid.sh            # default -benchtime 3x
#   BENCHTIME=10x ./scripts/bench_grid.sh
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${BENCHTIME:-3x}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' \
  -bench 'BenchmarkPointReplay$|BenchmarkPointFull$|BenchmarkGridWarmVsCold' \
  -benchtime "$benchtime" -count 1 . ./internal/mc/ | tee "$raw"

awk -v benchtime="$benchtime" '
  /^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)  # strip the GOMAXPROCS suffix
    lines[n++] = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s}", name, $2, $3)
  }
  END {
    print "{"
    printf "  \"benchtime\": \"%s\",\n", benchtime
    print "  \"results\": ["
    for (i = 0; i < n; i++) printf "%s%s\n", lines[i], (i < n - 1 ? "," : "")
    print "  ]"
    print "}"
  }
' "$raw" > BENCH_grid.json

echo "wrote BENCH_grid.json"
