#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash bench/run.sh --workload predict-base --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache, config)
# and the benchmark's own scratch files stay under .bench_build/ at the
# repository root.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/bench" build -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
