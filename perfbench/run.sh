#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload wire-embed --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build/ in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
