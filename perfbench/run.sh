#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload paper-repro --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME and GOTMPDIR keep the go command's config, telemetry and
# temporary files in the build directory too.
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config" \
	GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" -spans-dir "$build" "$@"
