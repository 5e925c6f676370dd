#!/usr/bin/env bash
# Builds the goopc benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload routed_l3_cold --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and every file a run writes stay under
# the build directory ($CARGO_TARGET_DIR, default .bench_build) of the
# checkout. Without the repository's Go module beside perfbench/ the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config"

# Keep the go command's cache, temporary files and user configuration
# (including its telemetry counters) inside the build directory, and
# never let it fetch a toolchain or module.
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
