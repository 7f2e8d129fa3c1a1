#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout's
# root (Go's build cache, temporary files and telemetry counters included,
# so nothing is written outside the checkout) and runs it with the given
# arguments from the caller's directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$here" && XDG_CONFIG_HOME="$build/config" go build -o "$build/arlo-bench" .)
exec "$build/arlo-bench" "$@"
