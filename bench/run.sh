#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source and
# runs it with the arguments given. Everything it writes stays under
# bench/out/: the binary, span files, set files, and what the go command keeps
# (build cache, temporary files, module cache, its telemetry counters).
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out/tmp
GOCACHE="$PWD/out/gocache" GOTMPDIR="$PWD/out/tmp" GOPATH="$PWD/out/gopath" XDG_CONFIG_HOME="$PWD/out/config" \
	go build -o out/bench .
exec out/bench "$@"
