#!/usr/bin/env bash
# Builds certbench from the sources of this checkout and runs it with the
# given arguments. Run from the repository root:
#
#	bash certbench/run.sh --workload serve-roundtrip --seed 1 --seconds 40 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build (or
# $CARGO_TARGET_DIR when set), inside the checkout. Outside a full checkout
# the build fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

export GOCACHE=$build/gocache GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
go -C certbench build -o "$build/certbench" .
exec "$build/certbench" -trace-dir "$build" "$@"
