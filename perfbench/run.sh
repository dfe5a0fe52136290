#!/usr/bin/env bash
# Builds the SPIRE benchmark from the sources of this checkout and runs it.
#
#   bash perfbench/run.sh --workload flow --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. The binary, the Go build cache
# and the run's scratch event logs all stay under .bench_build/, so the
# benchmark writes nothing outside the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out/work" "$@"
