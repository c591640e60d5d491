#!/usr/bin/env bash
# Builds perfbench from the checkout this script sits in and runs it from
# the checkout root, passing every argument through, e.g.
#
#   bash perfbench/run.sh --workload serve-shm --seed 3 --seconds 20 --trace 0
#
# The build cache, temporary files and the binary stay under .bench_build/
# in the checkout. Without the repository's sources next to perfbench/ the
# build fails and the script exits non-zero.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's own files (its telemetry
# counters) in the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
