#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the driver inside the
# checkout (Go build cache included, so nothing is written outside it)
# and runs it with the arguments given.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/flashbench" .)
exec "$build/flashbench" -repo "$root" "$@"
