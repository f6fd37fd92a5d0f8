#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it; every
# argument passes through (see pianobench/main.go for the flags). Run it
# from the repository root:
#
#	bash pianobench/run.sh --workload stream --seed 1 --seconds 30 --trace 0
#
# The Go build cache, module cache and the go command's own config and
# telemetry files live under .bench_build/ too, so a run writes nothing
# outside the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
(cd pianobench && go build -o "$out/pianobench" .)
exec "$out/pianobench" "$@"
