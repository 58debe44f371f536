#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources, then runs it with the
# given arguments (see perfbench/README.md). Everything it writes stays
# under .bench_build at the checkout root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" -work "$build/work" "$@"
