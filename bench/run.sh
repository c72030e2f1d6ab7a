#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root, e.g.
#
#   bash bench/run.sh --workload hot-point --seed 1 --seconds 20 --trace 0
#
# The build cache, binary, temporary stores and traces all live under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOWORK=off GOFLAGS= GOTOOLCHAIN=local \
	GOPROXY=off GOSUMDB=off CGO_ENABLED=0
(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
