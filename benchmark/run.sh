#!/usr/bin/env bash
# Entry point of BENCHMARK.json, run from the root of a checkout:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It builds the harness and cmd/dramhit-server from the checkout's own source
# (a no-op after the first run) and then runs the harness. Everything the
# build writes stays under .bench_build/ in the checkout; traces go to
# benchmark/out/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOENV=off GOPROXY=off GOTOOLCHAIN=local GOWORK=off

cd "$root/benchmark"
go build -o "$build/bin/dramhit-benchmark" .
go build -o "$build/bin/dramhit-server" dramhit/cmd/dramhit-server
exec "$build/bin/dramhit-benchmark" -server "$build/bin/dramhit-server" -out "$root/benchmark/out" "$@"
