#!/usr/bin/env bash
# Builds the benchmark and the partition server from this checkout's source,
# then runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload durable-tcp --seed 1 --seconds 50 --trace 0
#
# Build output, the Go build cache and run scratch state stay inside the
# checkout, under $CARGO_TARGET_DIR (default .bench_build). The last line of
# standard output is the run's JSON result.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/go-cache"
export GOPATH="$build/go-path"
export GOTMPDIR="$build/go-tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
mkdir -p "$GOTMPDIR" "$build/perfbench"

bin="$build/perfbench"
(
	cd perfbench
	go build -o "$bin/perfbench" .
	go build -o "$bin/snoopy-server" snoopy/cmd/snoopy-server
) >&2

exec "$bin/perfbench" --server-bin "$bin/snoopy-server" --work "$bin" "$@"
