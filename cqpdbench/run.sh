#!/usr/bin/env bash
# Builds cqpd and the benchmark from the checkout, then runs one benchmark
# workload. Run from the repository root:
#
#   bash cqpdbench/run.sh --workload search-bound --seed 1 --seconds 24 --trace 0
#
# Everything the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build) in the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOMODCACHE=$out/gomodcache
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off

go build -o "$out/cqpd" ./cmd/cqpd
go -C cqpdbench build -o "$out/cqpdbench" .
exec "$out/cqpdbench" -cqpd "$out/cqpd" -dir "$out" "$@"
