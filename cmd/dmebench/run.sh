#!/usr/bin/env bash
# Builds dmebench from source into .bench_build/ under the current directory
# (the repository root) and runs it there with the given arguments, e.g.
#
#   bash cmd/dmebench/run.sh --workload flat-zst --seed 1 --seconds 10 --trace 0
#
# The Go build cache and temporary files stay inside .bench_build/ too, and
# the toolchain never reaches the network: the module has no dependencies
# outside this repository.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"

# The go command keeps its telemetry counters under the user's config
# directory; pointing that at .bench_build/ keeps the build's writes there.
(
	cd "$src"
	export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
	export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOENV=off
	# go build relinks only when a source changed, so this is cheap on reruns.
	go build -buildvcs=false -o "$out/dmebench" .
)
exec "$out/dmebench" "$@"
