#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the benchmark, a package of
# the repository's module, from source into .bench_build at the root of
# the checkout and runs it with the arguments it was given. The Go build
# cache and every temporary file are kept under .bench_build too, so
# nothing outside the checkout is written; the first run in a checkout
# therefore compiles the standard library as well, and later runs reuse
# the cache.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd "$root" && go build -o "$build/hetbench" ./benchmark)
exec "$build/hetbench" "$@"
