#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it, passing the
# arguments through:
#
#   bash perfbench/run.sh --workload churn|restart|validate|all --seed N --seconds S --trace 0|1
#
# Run it from the root of the repository. The build cache, the binary and a
# traced run's spans and CPU profile all stay under .bench_build/ there.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/trace"

# Keep the Go toolchain's own files inside the checkout too, and offline.
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@" --out "$out/trace"
