#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given
# flags, e.g.
#
#   bash perfbench/run.sh --workload flow-cold --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --workload all
#
# Run it from the repository root. The build cache, the binary and the
# trace files stay under .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
go -C "$(dirname "$0")" build -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" "$@"
