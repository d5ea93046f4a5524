#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#	bash perfbench/run.sh --workload chat --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build writes (Go build
# cache, telemetry, the binary) stays under .bench_build/ in the current
# directory. Without the rest of the repository next to perfbench/, the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
