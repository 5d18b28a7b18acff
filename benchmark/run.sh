#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments. Everything the Go toolchain writes (build cache,
# temporary files, the binary) goes under .bench_build/ in the checkout,
# which .gitignore names; nothing outside the checkout is touched.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/go-mod"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly

# A no-op after the first build: the toolchain relinks only when a
# source file of the benchmark or of lumiere/internal changed.
go build -C benchmark -o "$build/lumiere-benchmark" .
exec "$build/lumiere-benchmark" "$@"
