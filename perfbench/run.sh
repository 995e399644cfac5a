#!/usr/bin/env bash
# Builds the benchmark and the witchd binary from this checkout's sources,
# then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --workload fleet --repeat 5 --seconds 15
#
# Run it from the repository root. Everything it builds or writes stays in
# .bench_build/ under that root, Go's build cache included.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" HOME="$out/home" \
	XDG_CONFIG_HOME="$out/home/.config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C "$root" -o "$out/witchd" ./cmd/witchd
go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" --witchd "$out/witchd" --work "$out/run" "$@"
