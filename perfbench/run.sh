#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload pingpong|namd|nqueens --seed N --seconds S --trace 0|1
#
# Every build product, cache and profile stays under .bench_build/ at the
# root of the checkout. The build fails (and so does this script) when the
# simulator's sources are not next to perfbench/.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# Keep the go command's cache, temporary files, configuration and telemetry
# inside the checkout, and never let it fetch a toolchain.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" --out "$out" "$@"
