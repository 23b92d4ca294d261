#!/usr/bin/env bash
# Builds pipeschedd and the benchmark from this checkout into .bench_build/
# (Go caches included, so nothing is written outside the checkout), then
# runs the benchmark with the given arguments. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload hit-heavy --seed 1 --seconds 10 --trace 0
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-build" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	XDG_CACHE_HOME="$out/cache" GOTOOLCHAIN=local GOPROXY=off
# The go command starts a detached telemetry uploader unless telemetry is
# off; that process would outlive the benchmark.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
if [ ! -f go.mod ]; then
	echo "perfbench: no go.mod here; run from the root of a pipesched checkout" >&2
	exit 1
fi
(cd "$here" && go build -o "$out/pipeschedd" pipesched/cmd/pipeschedd && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
