#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark from source inside
# the checkout, then run it with the driver's arguments. Everything the build
# and the run leave behind lives under .bench_build/ (git-ignored).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$out/flexbench" .
cd "$root"
exec "$out/flexbench" "$@"
