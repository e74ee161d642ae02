#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source and
# runs it with the driver's arguments. Everything the build and the run write
# (Go build cache, binary, graph and chain files, sockets, spans) stays under
# .bench_build/ in the directory the command was started from.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
# The benchmark is a package of the program's module; without the program
# there is nothing to measure, and the go command is not even started.
if [ ! -f "$here/../go.mod" ]; then
	echo "benchmark: $here/../go.mod not found: the program this benchmark measures is not here" >&2
	exit 2
fi
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" # where the go command keeps telemetry counters
export GOENV=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
# With a fresh config directory the go command starts a detached telemetry
# child (go1.23+) that outlives it; mode "off" makes it start none.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -C "$here/.." -buildvcs=false -o "$out/dvbenchmark" ./benchmark
exec "$out/dvbenchmark" "$@"
