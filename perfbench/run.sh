#!/usr/bin/env bash
# Builds ripsd and the benchmark from this checkout's sources, then runs
# the benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload inproc-ida --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and log stays under .bench_build/ in the
# checkout. Compile time is not part of any metric.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/ripsd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root; go.mod, cmd/ripsd or perfbench/go.mod is missing" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/perfbench" "$out/config/go/telemetry"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
# With telemetry on, the go command starts a detached upload process
# that can outlive this script; turn it off for this checkout.
echo off >"$out/config/go/telemetry/mode"

go build -o "$out/bin/ripsd" ./cmd/ripsd
(cd perfbench && go build -o "$out/bin/perfbench" .)

PERFBENCH_COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo "unknown")
export PERFBENCH_COMMIT
exec "$out/bin/perfbench" -ripsd "$out/bin/ripsd" -out "$out/perfbench" "$@"
