#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout and runs
# it from the root with the arguments given. Everything the Go toolchain
# writes — build cache, module cache, work directories, its own settings and
# counters — is pointed into .bench_build/, so nothing is written outside the
# checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-modcacherw GOPROXY=off
(cd "$root/bench" && go build -o "$out/smrp-bench" .)
cd "$root"
exec "$out/smrp-bench" "$@"
