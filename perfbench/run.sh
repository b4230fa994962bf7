#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is
# passed through (see perfbench/README.md). Run from the checkout root.
# The build, its Go cache and the trace files stay under .bench_build.
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
