#!/usr/bin/env bash
# Builds toposcenario, toposcenariod and the benchmark program from the
# checkout in the current directory, then runs it with the given
# arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload profile-ba3k --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout. Build output goes to
# standard error, so the last line of standard output is the result.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/toposcenario" || ! -d "$root/e2ebench" ]]; then
	echo "e2ebench: run from the repository root (cmd/toposcenario not found)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$out" = /* ]] || out="$root/$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
mkdir -p "$out/bin" "$TMPDIR" "$XDG_CONFIG_HOME" "$XDG_CACHE_HOME"

go build -o "$out/bin/" ./cmd/toposcenario ./cmd/toposcenariod >&2
(cd e2ebench && go build -o "$out/bin/e2ebench" .) >&2
exec "$out/bin/e2ebench" -root "$root" -out "$out" "$@"
