#!/usr/bin/env bash
# Builds matchbench from this checkout's sources and runs it with the given
# arguments, e.g.
#
#   bash bench/run.sh --workload serve-edcs --seed 3 --seconds 10 --trace 0
#
# The Go build cache, the binary and the checkpoint files all stay under
# .bench_build/ at the checkout root; nothing is fetched over the network.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$root/bench" build -o "$out/matchbench" ./cmd/matchbench
exec "$out/matchbench" -dir "$out/work" "$@"
