#!/usr/bin/env bash
# Builds the secmon benchmark from the checkout's source and runs it. Run it
# from the repository root; every argument is passed through:
#
#   bash perfbench/run.sh --workload plan-cold --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and every file a run writes stay under
# $CARGO_TARGET_DIR (default .bench_build) in the current directory. The
# build fails, and the script exits non-zero without a result, when the
# secmon sources are not beside this directory.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off GOTELEMETRY=off
(cd "$here" && go build -o "$out/secmon-perfbench" .) >&2
exec "$out/secmon-perfbench" --tmp "$out/tmp" "$@"
