#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Everything it writes — Go's build cache, module path and
# config directory, the binary, the scratch databases and artifacts — stays
# inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
go build -C "$here" -o "$build/orchestra-bench" .
cd "$root"
exec "$build/orchestra-bench" "$@"
