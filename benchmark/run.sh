#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. The driver calls
# it from the root of a checkout:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything it writes stays inside the checkout: the go build cache and the
# binary under .bench_build/, site directories and traces under
# benchmark/out/. In a directory without the repository's sources the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C "$root/benchmark" -o "$build/harbor-benchmark" .
exec "$build/harbor-benchmark" run "$@"
