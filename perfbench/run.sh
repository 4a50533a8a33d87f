#!/usr/bin/env bash
# Builds the benchmark and oracled from the source tree this script sits in,
# then runs one benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# current directory (Go build cache, temp files, binaries, span dumps).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOFLAGS=-buildvcs=false

cd "$root/perfbench"
go build -o "$out/perfbench" . >&2
go build -o "$out/oracled" oraclesize/cmd/oracled >&2
cd "$root"
exec "$out/perfbench" -oracled "$out/oracled" -workdir "$out" "$@"
