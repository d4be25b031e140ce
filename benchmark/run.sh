#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the given arguments. The Go build cache is kept
# there too, so a run reads and writes nothing outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
go build -o .bench_build/tqsim-benchmark ./benchmark
exec .bench_build/tqsim-benchmark "$@"
