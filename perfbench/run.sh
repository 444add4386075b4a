#!/usr/bin/env bash
# Builds the perfbench binary from this checkout's sources and runs it with
# the given arguments from the checkout root. Build outputs and the Go build
# cache live under $CARGO_TARGET_DIR (default .bench_build), so the
# benchmark writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/gomod" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
# The go command keeps its telemetry under the user config directory.
(cd perfbench && XDG_CONFIG_HOME="$out/config" go build -o "$out/perfbench" .) >&2
# The simulations are serial. A second Go P only adds cross-CPU wake-ups
# for the runtime's background work: on a 2-CPU VM the same simulations
# ran 10-20% slower with GOMAXPROCS=2 than with 1.
export GOMAXPROCS="${GOMAXPROCS:-1}"
exec "$out/perfbench" -spans "$out/spans" "$@"
