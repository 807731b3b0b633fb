#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it:
#
#   bash bench/run.sh --workload durable-ingest --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Everything the build and the run
# write stays under the build directory ($CARGO_TARGET_DIR, else
# .bench_build): the Go build cache, GOPATH, temporary files and the
# on-disk stores of the durable workload. The build is offline and uses the
# installed Go toolchain only.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/config"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/bench" && go build -o "$build/cpmabench" .)
exec "$build/cpmabench" run --workdir "$build/work" "$@"
