#!/usr/bin/env bash
# Builds the end-to-end search benchmark from source and runs it.
#
#   bash e2ebench/run.sh --workload search-cold --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and
# every file a run writes stay under .bench_build/ in that directory.
# The build is offline and uses only the local toolchain.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
(
  cd "$here"
  HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOCACHE="$out/gocache" \
    GOPATH="$out/gopath" GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local \
    GOPROXY=off go build -o "$out/e2ebench" .
) >&2
exec "$out/e2ebench" "$@"
