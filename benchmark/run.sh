#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the Go toolchain writes (build cache, temporary files, its own
# bookkeeping under $HOME) is kept under .bench_build in the checkout, and
# the module is built from the vendor tree, so nothing is fetched.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d benchmark ]; then
    echo "benchmark/run.sh: run from the root of a checkout of the wlpm module (no go.mod here)" >&2
    exit 1
fi
build="$PWD/.bench_build"
config="$build/home/.config"
mkdir -p "$build/tmp" "$config/go/telemetry"
# With telemetry in its default "local" mode the go command starts a detached
# side-car process on its first run under a fresh HOME, which outlives the
# build. Switched off, the build is the only process and it is waited for.
echo off > "$config/go/telemetry/mode"
env HOME="$build/home" XDG_CONFIG_HOME="$config" GOENV=off \
    GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
    GOFLAGS=-mod=vendor GOPROXY=off GOTOOLCHAIN=local \
    go build -o "$build/wlbench" ./benchmark
exec "$build/wlbench" "$@"
