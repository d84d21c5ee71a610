#!/usr/bin/env bash
# Builds the benchmark from the sources of the repository it is run in, then
# runs it with the given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload train-wide --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (compiler cache, binary) and the traced runs'
# Chrome traces go under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" HOME="$build/home" \
	XDG_CONFIG_HOME="$build/home/.config" GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd benchmark && go build -o "$build/dapple-benchmark" .)
exec "$build/dapple-benchmark" "$@"
