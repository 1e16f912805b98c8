#!/usr/bin/env bash
# Tracks the batched-execution perf trajectory: runs the batched default
# and the per-trial first-fault oracle (internal/mc benchmarks) on the
# same faulting-heavy above-PoFF model-C point of the checksum kernel
# (~95% of trials fork thousands of cycles past the last checkpoint),
# captures CPU and allocation profiles of the batched run, and writes
# the results plus the headline speedup ratio as BENCH_batch.json at
# the repo root. The batched/first-fault ratio is the acceptance metric
# of the batched engine (>= 5x); CI asserts it from a fresh run and
# uploads the profiles as artifacts.
#
#   ./scripts/bench_batch.sh            # default -benchtime 3x
#   BENCHTIME=10x ./scripts/bench_batch.sh
#
# Profiles land in PROFILE_DIR (default bench_profiles/, git-ignored):
#   go tool pprof bench_profiles/batch_cpu.pprof
#   go tool pprof -sample_index=alloc_space bench_profiles/batch_mem.pprof
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${BENCHTIME:-3x}"
profdir="${PROFILE_DIR:-bench_profiles}"
mkdir -p "$profdir"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' \
  -bench 'BenchmarkChecksumBatched$|BenchmarkChecksumFirstFault$' \
  -benchtime "$benchtime" -count 1 -benchmem \
  -cpuprofile "$profdir/batch_cpu.pprof" \
  -memprofile "$profdir/batch_mem.pprof" \
  ./internal/mc/ | tee "$raw"

awk -v benchtime="$benchtime" '
  /^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)  # strip the GOMAXPROCS suffix
    ns[name] = $3
    lines[n++] = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", name, $2, $3, $5, $7)
  }
  END {
    print "{"
    printf "  \"benchtime\": \"%s\",\n", benchtime
    print "  \"results\": ["
    for (i = 0; i < n; i++) printf "%s%s\n", lines[i], (i < n - 1 ? "," : "")
    print "  ],"
    batched = ns["BenchmarkChecksumBatched"]
    ff = ns["BenchmarkChecksumFirstFault"]
    printf "  \"batched_over_firstfault\": %.2f\n", (batched > 0 ? ff / batched : 0)
    print "}"
  }
' "$raw" > BENCH_batch.json

echo "wrote BENCH_batch.json; profiles in $profdir/"
