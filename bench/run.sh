#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash bench/run.sh --workload table3 --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and the traced outputs all go under
# .bench_build/ at the repository root, so a run writes nothing outside
# the checkout.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build_dir="$(dirname "$bench_dir")/.bench_build"
mkdir -p "$build_dir/tmp"

export GOCACHE="$build_dir/go-cache"
export GOPATH="$build_dir/go-path"
export XDG_CONFIG_HOME="$build_dir/config"
export TMPDIR="$build_dir/tmp" GOTMPDIR="$build_dir/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go -C "$bench_dir" build -o "$build_dir/hhbench" .
exec "$build_dir/hhbench" -out "$build_dir/trace" "$@"
