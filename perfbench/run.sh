#!/usr/bin/env bash
# Builds perfbench and the nvrel binary from the checkout this script sits
# in, then runs perfbench with the given arguments. Run it from the root
# of the checkout:
#
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache and span files stay in .bench_build/
# inside the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

(cd perfbench && go build -o "$out/perfbench" . && go build -o "$out/nvrel" nvrel/cmd/nvrel)
exec "$out/perfbench" "$@"
