#!/bin/sh
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments. Run from the repository root:
#
#   sh bench/run.sh --workload query_spill --seed 1999 --seconds 20 --trace 0
#
# Every file the build and the run create stays under .bench_build/ and
# bench/out/ (both git-ignored): the Go build and module caches are
# redirected there so nothing is written to $HOME.
set -eu
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$build/natix-bench" .
exec "$build/natix-bench" "$@"
