#!/usr/bin/env bash
# Builds the benchmark runner from source and runs it from the repository
# root; every argument is passed on. Build outputs and the Go build cache
# stay under .bench_build/ in the repository, so a run reads and writes
# nothing outside it. Examples:
#
#   bash bench/run.sh -seed 2022 -out .bench_build/a
#   bash bench/run.sh --workload fuzz --seed 7 --seconds 25 --trace 0
#   bash bench/run.sh -compare '.bench_build/a/results-*.json' '.bench_build/b/results-*.json'
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
export GOCACHE="$build/go-cache"
export GOPATH="$build/go-path"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

mkdir -p "$build/bin"
go -C "$root/bench" build -o "$build/bin/bench" .
cd "$root"
exec "$build/bin/bench" "$@"
