#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
#
#   bash bench/run.sh --workload apps-full --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh set -runs 5 -out base.json
#   bash bench/run.sh compare base.json head.json
#
# Run it from the repository root. Everything the build and the runs leave
# behind (Go build cache, binary, session logs, trace files) goes under
# .bench_build/ in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
# The go command keeps its env file and telemetry counters under the user
# config directory; point that inside the build directory too.
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

(cd bench && go build -o "$out/dsbench" .)
exec "$out/dsbench" "$@"
