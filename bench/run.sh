#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root (the driver does). Everything the build
# leaves behind — Go's build cache included — stays inside the checkout,
# under .bench_build/.
set -euo pipefail
root=$PWD
mkdir -p "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/tmp" GOTOOLCHAIN=local
go build -C bench -o "$root/.bench_build/mrxbench" .
exec "$root/.bench_build/mrxbench" "$@"
