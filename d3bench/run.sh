#!/usr/bin/env bash
# Builds d3bench from the checkout's sources and runs it with the given
# arguments. Run from the repository root:
#
#   bash d3bench/run.sh --workload pylot-steady --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files, the binary and everything the
# benchmark writes stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/d3bench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off
go -C d3bench build -buildvcs=false -o "$out/d3bench" .
exec "$out/d3bench" "$@"
