#!/usr/bin/env bash
# Builds lserved, lsharded and the e2ebench load generator from the
# checkout this is started in (run it from the checkout's root), then runs
# the generator with the arguments given, e.g.
#
#   bash e2ebench/run.sh --workload small-k1 --seed 1 --seconds 10 --trace 0
#
# Build caches, binaries, process logs and temporary files all stay under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/e2ebench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config" "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOTELEMETRY=off

go build -o "$out/bin/" ./cmd/lserved ./cmd/lsharded
(cd "$root/e2ebench" && go build -o "$out/bin/e2ebench" .)
exec "$out/bin/e2ebench" -bin "$out/bin" -rundir "$out/run" "$@"
