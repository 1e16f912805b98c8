#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given
# flags, from the root of a checkout:
#
#   bash benchmark/run.sh --workload trials-faulting --seed 3 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, temp files,
# artifact stores, span files) stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
  echo "benchmark/run.sh: run from the root of a repro checkout (go.mod and internal/ missing)" >&2
  exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export HOME="$build/home" XDG_CACHE_HOME="$build/home/.cache" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOTELEMETRY=off

(cd "$root/benchmark" && go build -o "$build/fisimbench" .)
exec "$build/fisimbench" "$@"
