#!/usr/bin/env bash
# Builds cltjd and the perfbench harness from this checkout's sources,
# then runs the harness. Run from the repository root:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build outputs, the Go build cache and the run's scratch files all stay
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp" "$build/config" "$build/traces"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp
export TMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -o "$build/cltjd" ./cmd/cltjd
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -cltjd "$build/cltjd" -work "$build/work" -traces "$build/traces" "$@"
