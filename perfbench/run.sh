#!/usr/bin/env bash
# Builds perfbench from this checkout and runs one workload:
#
#   bash perfbench/run.sh --workload sweep-walker --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it writes stays under
# $CARGO_TARGET_DIR (default .bench_build): the Go build cache and temporary
# files, the binary, each run's generated inputs (removed when the run ends)
# and the spans of traced runs. The inputs are generated by a separate process, so the
# measured one starts with a clean heap and a cold arena and memo store.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/spans" "$out/tmp"
export TMPDIR="$out/tmp" GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
export GOMAXPROCS="${GOMAXPROCS:-$(nproc)}"

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2

work=$(mktemp -d "$out/run.XXXXXX")
trap 'rm -rf "$work"' EXIT
"$out/perfbench" --phase prep --dir "$work" "$@" >&2
"$out/perfbench" --phase run --dir "$work" --spans "$out/spans" "$@"
