#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout this script sits in, then runs it with the given arguments.
# Nothing is written outside the checkout: the Go build and module caches
# live under .bench_build/ too.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/newsum-benchmark" .)
exec "$build/newsum-benchmark" "$@"
