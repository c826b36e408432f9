#!/usr/bin/env bash
# Builds the pipeline benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash pipebench/run.sh --workload generate --seed 11 --seconds 20 --trace 0
#
# The binary, the Go build cache and the run's scratch files live under
# .bench_build/ in the root, so a run reads and writes only inside the
# checkout. Build output goes to standard error; the last line of
# standard output is the result.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
# HOME and XDG_CONFIG_HOME keep the toolchain's own files (telemetry
# counters) inside the checkout too.
export GOTOOLCHAIN=local GOENV=off GOFLAGS= \
	GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
(cd "$root/pipebench" && go build -o "$build/pipebench" .) >&2
exec "$build/pipebench" "$@"
