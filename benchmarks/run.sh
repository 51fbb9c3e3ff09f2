#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds chaosbench from source into
# .bench_build/ at the root of the checkout (first run only; later runs find
# the build cache warm) and runs it with the arguments given. Everything the
# Go toolchain writes — build cache, module cache, its own config — is kept
# inside .bench_build/, so a run touches nothing outside the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off
# The module under benchmarks/ replaces `repro` with the checkout around it,
# so this fails (and nothing is measured) where the repository is missing.
go build -C "$here" -o "$build/chaosbench" ./cmd/chaosbench 1>&2
cd "$root"
exec "$build/chaosbench" -out benchmarks/out "$@"
