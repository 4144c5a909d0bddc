#!/usr/bin/env bash
# Builds wsnbench from source inside the checkout and runs it with the
# given arguments. Run it from the repository root, e.g.
#
#   bash bench/run.sh --workload field-steady --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under .bench_build (or
# $CARGO_TARGET_DIR, when set): the Go build cache, the binary and the
# workloads' scratch directories. A failed build exits non-zero before the
# benchmark prints anything.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/work"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$out/wsnbench" ./wsnbench)
exec "$out/wsnbench" -workdir "$out/work" "$@"
