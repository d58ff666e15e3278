#!/usr/bin/env bash
# Build file and entry point of the benchmark: compiles ./bench into
# .bench_build/ under the checkout root and runs it with the arguments
# given. BENCHMARK.json names this script as the command.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
# Everything the go command writes stays inside the checkout: the build
# cache, its work directory, and (through the config home) its telemetry
# counters. GOENV=off because that config home holds no go/env.
build_dir="$root/.bench_build"
mkdir -p "$build_dir/tmp"
export GOCACHE="$build_dir/go-cache" GOTMPDIR="$build_dir/tmp" \
	XDG_CONFIG_HOME="$build_dir/config" GOENV=off GOTOOLCHAIN=local
build() { go build "$@" -o "$build_dir/bench" ./bench; }
# The first form stamps the commit into the run record; it fails where
# git cannot answer for the checkout, the second form does not ask.
build 2>/dev/null || build -buildvcs=false
exec "$build_dir/bench" "$@"
