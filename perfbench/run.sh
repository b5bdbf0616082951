#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Run it from the repository root; the arguments go to the benchmark:
#
#   bash perfbench/run.sh --workload strongarm --seed 1 --seconds 40 --trace 0
#
# Build output, the Go build cache, the go command's own config and
# telemetry files, and the run's result, span and profile files all
# stay under .bench_build/ in the checkout.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/perfbench"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$build/perfbench/perfbench" .)
exec "$build/perfbench/perfbench" "$@"
