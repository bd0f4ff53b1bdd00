#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it.
#
#   bash perfbench/run.sh --workload transient|cold|serve --seed N --seconds S --trace 0|1
#
# Run from the repository root. perfbench/ is a Go module of its own
# (perfbench/go.mod) that takes the solver from the enclosing checkout
# through a replace directive, so the build fails without it. Everything
# the build and the run write (Go build cache, temporary files, Go's
# telemetry directory, the binary, traced span logs) stays under
# .bench_build/ in that directory.
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# With telemetry on (Go's default "local" mode) the go command may start a
# detached sidecar process that outlives the build; switch it off.
printf 'off\n' > "$XDG_CONFIG_HOME/go/telemetry/mode"

go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
