#!/bin/sh
# Bench smoke: one iteration of every top-level benchmark, of the trace
# decode benchmarks and of the core benchmarks with -benchmem, of the
# corpus-fill benchmark at one and two CPUs, and of the result store's
# Open, proving the harness runs end to end and the custom metrics (ed_*,
# accuracies, ns/inst) keep computing — plus a perf regression tripwire
# on the headline pipeline benchmark.
#
# BenchmarkTable5's single-iteration time is compared against the baseline
# committed in BENCH_PR8.json. The comparison only *fails* the build when
# this host's CPU model matches the one the baseline was recorded on
# (wall-clock baselines do not transfer across host classes); on any other
# host a regression prints a prominent warning and the step passes.
set -eu

cd "$(dirname "$0")/.."
out=$(mktemp)
trap 'rm -f "$out"' EXIT

go test -bench . -benchtime=1x -benchmem -run '^$' . | tee "$out"
# The trace decode path (the arena's whole-file load) and the arena
# replay's window expansion.
go test -bench . -benchtime=1x -benchmem -run '^$' ./internal/trace
# core.Run replaying each suite stream under every d-cache policy (ns/inst),
# and the result codec guard: BenchmarkDecodeResult and
# BenchmarkEncodeResult (time and allocs per result).
go test -bench . -benchtime=1x -benchmem -run '^$' ./internal/core
# A cold query-corpus fill, at one CPU (the result store's serial scan)
# and at two (its parallel decode).
go test -run '^$' -bench StoreRecords -benchtime=1x -cpu 1,2 ./internal/sweep
# Reopening a result store of 1,500 records: Open's one full log scan.
go test -run '^$' -bench '^BenchmarkOpen$' -benchtime=1x ./internal/resultdb

t5=$(awk '/^BenchmarkTable5/ {print $3; exit}' "$out")
if [ -z "$t5" ]; then
    echo "bench smoke: BenchmarkTable5 missing from benchmark output" >&2
    exit 1
fi

base=$(awk -F'[:,]' '/^ *"ns_per_op_median"/ {gsub(/ /, "", $2); print $2; exit}' BENCH_PR8.json)
basecpu=$(awk -F'"' '/^ *"cpu"/ {print $4; exit}' BENCH_PR8.json)
hostcpu=$(awk -F: '/^model name/ {sub(/^[ \t]+/, "", $2); print $2; exit}' /proc/cpuinfo 2>/dev/null || true)

# Fail at >20% over baseline; the single-core baseline host itself shows
# ~20% wall-clock noise, so a tighter bound would flake.
if [ -z "$base" ]; then
    echo "bench smoke: no BenchmarkTable5 baseline in BENCH_PR8.json; skipping regression check"
    exit 0
fi
over=$(awk -v t="$t5" -v b="$base" 'BEGIN { print (t > b * 1.2) ? 1 : 0 }')
ratio=$(awk -v t="$t5" -v b="$base" 'BEGIN { printf "%.2f", t / b }')
if [ "$over" = 1 ]; then
    if [ "$hostcpu" = "$basecpu" ]; then
        echo "bench smoke: BenchmarkTable5 regressed: $t5 ns/op is ${ratio}x the committed baseline $base (host: $hostcpu)" >&2
        exit 1
    fi
    echo "bench smoke: WARNING: BenchmarkTable5 at $t5 ns/op is ${ratio}x the committed baseline $base," >&2
    echo "bench smoke: WARNING: but this host ('$hostcpu') is not the baseline host ('$basecpu') — not failing" >&2
else
    echo "bench smoke: BenchmarkTable5 $t5 ns/op, ${ratio}x of committed baseline $base — OK"
fi
