#!/usr/bin/env bash
# Launcher named by BENCHMARK.json: builds the benchmark from source and
# runs it, keeping everything it writes (Go build cache, binaries, scratch
# files) under .bench_build/ in the checkout. Arguments go to the benchmark.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0
cd "$root"
go -C "$here" build -o "$build/ladder" .
exec "$build/ladder" -dir "$build/tmp" "$@"
