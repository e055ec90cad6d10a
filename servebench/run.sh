#!/usr/bin/env bash
# Builds the serving benchmark from the checkout's sources and runs it.
# Run from the repository root; every argument is passed through:
#
#   bash servebench/run.sh --workload serve-fresh --seed 1 --seconds 30 --trace 0
#
# The Go build cache, module cache, temporary files and the binary all live
# under .bench_build/ in the checkout, so nothing is written outside it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly
export GOWORK=off
export CGO_ENABLED=0

go -C "$root/servebench" build -o "$out/servebench" .
exec "$out/servebench" "$@"
