#!/usr/bin/env bash
# Builds the benchmark program from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-replay --seed 1 --seconds 30 --trace 0
#
# Every build artefact and Go cache stays under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout. The build fails, and the script exits
# non-zero without a result, when the repository sources are not present.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
