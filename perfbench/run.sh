#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it, passing
# every argument on:
#
#   bash perfbench/run.sh --workload mems-sptf-open --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go's build cache, temporary files and the
# binary) goes under .bench_build/ at the root of the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
