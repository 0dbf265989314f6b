#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's .bench_build
# directory and runs it with the given flags. The Go build cache is kept
# there too, so nothing is written outside the checkout; the first run
# in a checkout therefore compiles the standard library as well.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/go-cache" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -C "$here" -o "$build/colarm-benchmark" .
exec "$build/colarm-benchmark" "$@"
