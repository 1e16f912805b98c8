#!/usr/bin/env bash
# Tracks the trial-path perf trajectory: runs the three trial-path
# benchmarks of internal/mc on the same sub-PoFF model-C point — batched
# first-fault sampling (the default), the golden-trace replay scan
# oracle, and full ISS execution (ModeFull) —
# and writes the results plus the headline speedup ratios as
# BENCH_scan.json at the repo root. The first-fault/scan ratio is the
# acceptance metric of the hazard-table engine (>= 10x).
#
#   ./scripts/bench_scan.sh            # default -benchtime 3x
#   BENCHTIME=10x ./scripts/bench_scan.sh
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${BENCHTIME:-3x}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' \
  -bench 'BenchmarkPointFirstFault$|BenchmarkPointReplay$|BenchmarkPointFull$' \
  -benchtime "$benchtime" -count 1 ./internal/mc/ | tee "$raw"

awk -v benchtime="$benchtime" '
  /^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)  # strip the GOMAXPROCS suffix
    ns[name] = $3
    lines[n++] = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s}", name, $2, $3)
  }
  END {
    print "{"
    printf "  \"benchtime\": \"%s\",\n", benchtime
    print "  \"results\": ["
    for (i = 0; i < n; i++) printf "%s%s\n", lines[i], (i < n - 1 ? "," : "")
    print "  ],"
    ff = ns["BenchmarkPointFirstFault"]
    scan = ns["BenchmarkPointReplay"]
    full = ns["BenchmarkPointFull"]
    printf "  \"scan_over_firstfault\": %.2f,\n", (ff > 0 ? scan / ff : 0)
    printf "  \"full_over_firstfault\": %.2f\n", (ff > 0 ? full / ff : 0)
    print "}"
  }
' "$raw" > BENCH_scan.json

echo "wrote BENCH_scan.json"
