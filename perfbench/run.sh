#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload paper-cold --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Every build artifact, Go cache and temp
# file lives under .bench_build/ ($CARGO_TARGET_DIR when set), so a run
# writes nothing else into the checkout. The build fails, and the script
# exits non-zero without printing a result, when the simulator sources are
# not next to perfbench/.
set -euo pipefail

root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
