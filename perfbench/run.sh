#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash perfbench/run.sh --workload kfac-resnet --seed 1 --seconds 25 --trace 0
# Run it from the repository root. Every build product, the Go build cache
# and the traced runs' span files stay under the build directory
# ($CARGO_TARGET_DIR, default .bench_build).
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --spans-dir "$build/spans" "$@"
