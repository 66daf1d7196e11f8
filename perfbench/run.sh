#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload advise-s1 --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files) stays in
# .bench_build/ at the repository root. The benchmark is its own Go module,
# which reaches the program through `replace gpuhms => ../`, so outside a
# full checkout of the repository the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOENV=off GOWORK=off

# Telemetry off: no counter files, and no background process outlives the
# run. Toolchains without the subcommand have no telemetry to turn off.
go telemetry off >/dev/null 2>&1 || true
(cd "$here" && go build -buildvcs=false -o "$out/perfbench" .)

commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || true)"
exec "$out/perfbench" -root "$root" -commit "${commit:-unknown}" "$@"
