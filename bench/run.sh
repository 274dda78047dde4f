#!/usr/bin/env bash
# Builds ridperf and the rid daemon from this checkout, then runs ridperf
# with the given flags (see bench/README.md):
#
#   bash bench/run.sh -seed 317 [-workload W] [-trace] [-repeat N] [-json out.json]
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout, the Go build cache included.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$root/bench" && go build -o "$out/bin/ridperf" ./ridperf)
(cd "$root" && go build -o "$out/bin/rid" ./cmd/rid)

cd "$root"
exec "$out/bin/ridperf" -rid "$out/bin/rid" -work "$out/ridperf" "$@"
