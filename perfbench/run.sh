#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Every build
# artefact, cache and scratch file stays under .bench_build in the checkout.
#
#   bash perfbench/run.sh --workload fuzz-long --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare <result-dir-A> <result-dir-B>
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off
export GOTOOLCHAIN=local

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
