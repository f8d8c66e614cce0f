#!/usr/bin/env bash
# Builds the benchmark and the programs it drives (dssddi-serve,
# dssddi-router) from the checkout's sources into .bench_build/, then
# runs it with the given arguments. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload cold-f64 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/dssddi-serve" ] || [ ! -d "$root/perfbench" ]; then
    echo "perfbench: run from the root of a dssddi checkout" >&2
    exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
    XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
(
    cd "$root/perfbench"
    go build -o "$out/bin/perfbench" .
    go build -o "$out/bin/" dssddi/cmd/dssddi-serve dssddi/cmd/dssddi-router
) >&2
exec "$out/bin/perfbench" -root "$root" "$@"
