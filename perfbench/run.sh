#!/usr/bin/env bash
# Builds the whole-study benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload paper|crawl|stuffing --seed N --seconds S --trace 0|1
#
# Everything the build writes (Go build cache, temporary files, the
# binary) stays under .bench_build/ in the current directory.
set -euo pipefail

if [[ ! -f go.mod || ! -f tripwire.go || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a tripwire source tree" >&2
	exit 2
fi

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
