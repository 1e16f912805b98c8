#!/usr/bin/env bash
# Acceptance gates of the trial paths: runs the internal/mc gate
# benchmarks — each production path against the test oracle it
# replaced — asserts every bar below, and writes the benchmark rows,
# the ratios and one {name, value, op, bar, pass} entry per gate as
# gates.json at the repo root. Exits non-zero when any gate misses.
#
#   scan     BenchmarkPointReplay / BenchmarkPointFirstFault        >= 10
#   batched  BenchmarkChecksumFirstFault / BenchmarkChecksumBatched >= 5
#   cold     duplicated / deduped cold submissions                  >= 3,
#            and duplicated == 8 x deduped for every build counter
#   quality  quality / boolean trials on median, kmeans, matmult8   <= 1.10
#
# The cluster speedup and serve SLO gates run as ordinary tests:
# TestClusterShapesBitIdentical (internal/cluster) and
# TestSaturationSLO (internal/loadgen). End-to-end numbers come from
# `bash benchmark/run.sh`.
#
# The batched run is profiled:
#   go tool pprof bench_profiles/gates_cpu.pprof
#   go tool pprof -sample_index=alloc_space bench_profiles/gates_mem.pprof
set -euo pipefail
cd "$(dirname "$0")/.."

mkdir -p bench_profiles
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# bench <benchtime> <regexp> [go test flags...]
bench() {
  local benchtime="$1" pattern="$2"
  shift 2
  go test -run '^$' -bench "$pattern" -benchtime "$benchtime" -count 1 -benchmem \
    "$@" ./internal/mc/ | tee -a "$raw"
}

bench 3x 'BenchmarkPoint(FirstFault|Replay|Full)$'
bench 10x 'BenchmarkChecksum(Batched|FirstFault)$' \
  -cpuprofile bench_profiles/gates_cpu.pprof -memprofile bench_profiles/gates_mem.pprof
bench 10x 'BenchmarkCold(SubmissionsDeduped|SubmissionsDuplicated|GridPipelined|GridSerial)$'
bench 20x 'BenchmarkTrials(Median|KMeans|MatMult8)(Quality|Boolean)$'

awk '
  # "BenchmarkX-2  N  <value> <unit>  <value> <unit> ...": every
  # value/unit pair after the iteration count becomes a field.
  /^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)  # strip the GOMAXPROCS suffix
    row = sprintf("{\"name\": \"%s\", \"iterations\": %s", name, $2)
    for (i = 3; i + 1 <= NF; i += 2) {
      unit = $(i + 1)
      key = (unit == "ns/op" ? "ns_per_op" : unit == "B/op" ? "bytes_per_op" : unit == "allocs/op" ? "allocs_per_op" : unit)
      gsub(/-/, "_", key)
      m[name, key] = $i
      row = row sprintf(", \"%s\": %s", key, $i)
    }
    rows[nrows++] = row "}"
  }

  function ns(b) { return m["Benchmark" b, "ns_per_op"] }
  function ratio(key, num, den) {
    ratios[nratios++] = key
    num += 0; den += 0
    r[key] = (num > 0 && den > 0 ? num / den : "null")
    return r[key]
  }
  # A gate whose inputs are missing reads null and fails.
  function gate(name, value, op, bar,   pass) {
    pass = (value != "null" && (op == ">=" ? value >= bar : op == "<=" ? value <= bar : value == bar))
    if (!pass) fail = 1
    gates[ngates++] = sprintf("{\"name\": \"%s\", \"value\": %s, \"op\": \"%s\", \"bar\": %s, \"pass\": %s}", \
      name, value, op, bar, (pass ? "true" : "false"))
    printf "gate %-34s %10s %s %-6s %s\n", name, value, op, bar, (pass ? "ok" : "FAIL") > "/dev/stderr"
  }

  END {
    gate("scan_over_firstfault", ratio("scan_over_firstfault", ns("PointReplay"), ns("PointFirstFault")), ">=", 10)
    ratio("full_over_firstfault", ns("PointFull"), ns("PointFirstFault"))
    gate("batched_over_firstfault", ratio("batched_over_firstfault", ns("ChecksumFirstFault"), ns("ChecksumBatched")), ">=", 5)
    gate("duplicated_over_deduped", ratio("duplicated_over_deduped", ns("ColdSubmissionsDuplicated"), ns("ColdSubmissionsDeduped")), ">=", 3)
    ratio("serial_over_pipelined", ns("ColdGridSerial"), ns("ColdGridPipelined"))
    split("models_built goldens_recorded hazards_built", counters, " ")
    for (i = 1; i <= 3; i++) {
      dd = m["BenchmarkColdSubmissionsDeduped", counters[i]]
      dup = m["BenchmarkColdSubmissionsDuplicated", counters[i]]
      gate("duplicated_" counters[i], (dup == "" ? "null" : dup + 0), "==", (dd == "" ? "null" : 8 * dd))
    }
    split("Median KMeans MatMult8", kernels, " ")
    for (i = 1; i <= 3; i++) {
      k = "quality_over_boolean_" tolower(kernels[i])
      gate(k, ratio(k, ns("Trials" kernels[i] "Quality"), ns("Trials" kernels[i] "Boolean")), "<=", 1.10)
    }

    print "{"
    print "  \"results\": ["
    for (i = 0; i < nrows; i++) printf "    %s%s\n", rows[i], (i < nrows - 1 ? "," : "")
    print "  ],"
    print "  \"ratios\": {"
    for (i = 0; i < nratios; i++) {
      v = r[ratios[i]]
      printf "    \"%s\": %s%s\n", ratios[i], (v == "null" ? v : sprintf("%.4f", v)), (i < nratios - 1 ? "," : "")
    }
    print "  },"
    print "  \"gates\": ["
    for (i = 0; i < ngates; i++) printf "    %s%s\n", gates[i], (i < ngates - 1 ? "," : "")
    print "  ],"
    printf "  \"pass\": %s\n", (fail ? "false" : "true")
    print "}"
    exit fail
  }
' "$raw" > gates.json || { echo "gates: FAIL (see gates.json)" >&2; exit 1; }

echo "gates: all pass (wrote gates.json; profiles in bench_profiles/)" >&2
