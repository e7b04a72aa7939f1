#!/bin/sh
# Builds ptrack-serve and the benchmark program from the checkout's
# source, then runs the benchmark with the given arguments. Everything
# the build writes stays under .bench_build/ at the checkout root.
#
#   sh perfbench/run.sh --workload hot-binary --seed 1 --seconds 15 --trace 0
set -eu
root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
# Keep the toolchain's caches, temp files and config (telemetry
# counters included) inside the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0
# A fresh config dir puts Go telemetry in "local" mode, in which the
# first go command forks a detached sidecar that outlives this script.
# "go telemetry off" is the one invocation that never starts it.
go telemetry off
go build -o "$out/bin/ptrack-serve" ./cmd/ptrack-serve
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -serve "$out/bin/ptrack-serve" -work "$out/work" "$@"
