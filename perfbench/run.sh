#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it. Every build
# artifact (binary, Go build cache, temp files) stays under .bench_build/ in
# the checkout. Run from the repository root:
#
#	bash perfbench/run.sh --workload train-1node --seed 1 --seconds 20 --trace 0
#
# A directory holding only the benchmark (no repository sources next to it)
# fails the build, so the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOENV=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
