#!/usr/bin/env bash
# Builds hostbench from source inside the checkout, then runs it with the
# given arguments. Run from the repository root:
#
#   bash hostbench/run.sh --workload agg-serial --seed 1 --seconds 25 --trace 0
#
# Every file the build writes (build cache, module cache, toolchain
# settings, the binary) stays under .bench_build in the checkout.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd hostbench && go build -trimpath -o "$build/hostbench" .)
exec "$build/hostbench" "$@"
