#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Build outputs, the Go build cache and
# the benchmark's scratch data all stay under .bench_build in the current
# directory. The module replaces adaptrm with the parent directory, so
# outside a full checkout the build fails and the script exits non-zero
# without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
# The go command's user configuration (go env file, telemetry counters)
# lives under XDG_CONFIG_HOME; keep it inside the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -scratch "$out" "$@"
