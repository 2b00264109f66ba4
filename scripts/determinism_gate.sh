#!/bin/sh
# Determinism gate: simulation outputs are contractually byte-stable.
#
# Runs a small sweep grid twice through both trace sources and byte-diffs
# every output against the checked-in golden fixtures
# (testdata/golden_sweep.json / .csv), which were recorded from live
# workload walkers. The "walker" legs replay the sweep's shared in-process
# capture of each benchmark's walker stream; the "replay" legs decode a
# fresh .wct capture of the same benchmarks, filed in a content-addressed
# trace store and named by its hash (-traces, -tracestore). The gate then
# checks that three -shard pieces concatenate to the golden CSV body. An
# experiments leg checks that the paper's evaluation is worker-count
# independent, that a second run against the same -store recalls every
# cell, and that a bad -benchmarks list fails with a one-line error. Any
# drift means a change to simulation behaviour, which a perf refactor must
# not cause; regenerate the fixtures (GOLDEN=regen) only for a PR that
# intentionally changes the model.
set -eu

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/sweep" ./cmd/sweep
go build -o "$tmp/tracegen" ./cmd/tracegen
go build -o "$tmp/experiments" ./cmd/experiments

BENCHES="gcc,swim"
POLICIES="parallel,sequential,waypred-pc,seldm+waypred"
INSTS=30000

# stderr stays visible so a failing sweep run leaves a diagnostic in CI.
run_sweep() { # $1=format $2=out $3... extra flags
    fmt=$1; outf=$2; shift 2
    "$tmp/sweep" -benchmarks "$BENCHES" -dpolicies "$POLICIES" -dways 2,4 \
        -insts "$INSTS" -progress=false -format "$fmt" -out "$outf" "$@"
}

# Walker-driven grid, twice (run-to-run determinism).
run_sweep json "$tmp/walk1.json"
run_sweep json "$tmp/walk2.json"
run_sweep csv "$tmp/walk1.csv"
cmp "$tmp/walk1.json" "$tmp/walk2.json" ||
    { echo "determinism gate: walker sweep differs run to run" >&2; exit 1; }

# Trace-replay grid, twice, from a fresh capture of the same benchmarks,
# replayed by content hash. A reference the sweep cannot use warns on
# stderr and falls back, so the stderr of each replay leg must be clean.
refs=""
for b in $(echo "$BENCHES" | tr , ' '); do
    ref=$("$tmp/tracegen" -capture -bench "$b" -n "$INSTS" -store "$tmp/ts" 2>/dev/null)
    refs="$refs${refs:+,}$ref"
done
run_replay() { # $1=format $2=out $3... extra flags
    fmt=$1; outf=$2; shift 2
    run_sweep "$fmt" "$outf" -traces "$refs" -tracestore "$tmp/ts" "$@" 2>"$outf.err" ||
        { cat "$outf.err" >&2; exit 1; }
    if grep -q "replayed from walker" "$outf.err"; then
        cat "$outf.err" >&2
        echo "determinism gate: replay sweep fell back to the walker" >&2
        exit 1
    fi
}
run_replay json "$tmp/replay1.json"
run_replay json "$tmp/replay2.json"
run_replay csv "$tmp/replay1.csv"
cmp "$tmp/replay1.json" "$tmp/replay2.json" ||
    { echo "determinism gate: replay sweep differs run to run" >&2; exit 1; }
cmp "$tmp/walk1.json" "$tmp/replay1.json" ||
    { echo "determinism gate: replay sweep differs from walker sweep" >&2; exit 1; }
cmp "$tmp/walk1.csv" "$tmp/replay1.csv" ||
    { echo "determinism gate: replay CSV differs from walker CSV" >&2; exit 1; }

# Parallel-worker legs: a -workers 4 sweep must produce byte-identical
# output to the serial one, in both source modes — results are ordered by
# grid position, never by completion. (walk1 is byte-compared against the
# golden fixtures below, so these legs are transitively golden-checked.)
run_sweep json "$tmp/walk_w4.json" -workers 4
cmp "$tmp/walk1.json" "$tmp/walk_w4.json" ||
    { echo "determinism gate: -workers 4 walker sweep differs from serial" >&2; exit 1; }
run_replay json "$tmp/replay_w4.json" -workers 4
cmp "$tmp/walk1.json" "$tmp/replay_w4.json" ||
    { echo "determinism gate: -workers 4 replay sweep differs from serial" >&2; exit 1; }

if [ "${GOLDEN:-}" = "regen" ]; then
    cp "$tmp/walk1.json" testdata/golden_sweep.json
    cp "$tmp/walk1.csv" testdata/golden_sweep.csv
    echo "determinism gate: regenerated golden fixtures"
    exit 0
fi

cmp testdata/golden_sweep.json "$tmp/walk1.json" ||
    { echo "determinism gate: sweep JSON drifted from golden fixture" >&2; exit 1; }
cmp testdata/golden_sweep.csv "$tmp/walk1.csv" ||
    { echo "determinism gate: sweep CSV drifted from golden fixture" >&2; exit 1; }

# Shard leg: -shard i/3 runs the i-th span sweep.SpanOf cuts, and the
# three CSV bodies (headers stripped) concatenate, in order, to the
# golden CSV body.
: >"$tmp/shards.body"
for i in 0 1 2; do
    run_sweep csv "$tmp/shard$i.csv" -shard "$i/3"
    tail -n +2 "$tmp/shard$i.csv" >>"$tmp/shards.body"
done
tail -n +2 testdata/golden_sweep.csv >"$tmp/golden.body"
cmp "$tmp/golden.body" "$tmp/shards.body" ||
    { echo "determinism gate: -shard i/3 CSV bodies do not concatenate to the golden body" >&2; exit 1; }

# Experiments leg: every experiment's declared sweep yields the same
# summaries with 1 and 4 workers; a second run against the same -store
# recalls every cell (0 simulations) and reproduces the bytes; an unknown
# benchmark exits 2 with a one-line error, not a panic.
run_exp() { # $1=out $2=stderr $3... extra flags
    outf=$1; errf=$2; shift 2
    "$tmp/experiments" -run all -json -insts 20000 -benchmarks "$BENCHES" "$@" >"$outf" 2>"$errf" ||
        { cat "$errf" >&2; echo "determinism gate: experiments run failed" >&2; exit 1; }
}
run_exp "$tmp/exp_w1.json" "$tmp/exp_w1.err" -workers 1
run_exp "$tmp/exp_w4.json" "$tmp/exp_w4.err" -workers 4
cmp "$tmp/exp_w1.json" "$tmp/exp_w4.json" ||
    { echo "determinism gate: -workers 4 experiments differ from serial" >&2; exit 1; }
run_exp "$tmp/exp_s1.json" "$tmp/exp_s1.err" -store "$tmp/expstore"
run_exp "$tmp/exp_s2.json" "$tmp/exp_s2.err" -store "$tmp/expstore"
grep -q '\[sweep store: 0 simulations,' "$tmp/exp_s2.err" ||
    { cat "$tmp/exp_s2.err" >&2; echo "determinism gate: second -store experiments run re-simulated" >&2; exit 1; }
cmp "$tmp/exp_s1.json" "$tmp/exp_s2.json" ||
    { echo "determinism gate: experiments recalled from -store differ from the first run" >&2; exit 1; }
status=0
"$tmp/experiments" -run fig4 -benchmarks bogus >/dev/null 2>"$tmp/exp_bad.err" || status=$?
if [ "$status" -ne 2 ] || grep -q goroutine "$tmp/exp_bad.err"; then
    cat "$tmp/exp_bad.err" >&2
    echo "determinism gate: -benchmarks bogus exited $status (want 2, no panic)" >&2
    exit 1
fi

echo "determinism gate: OK (walker == replay == golden, serial and 4 workers, twice; 3 shards == golden; experiments worker- and store-stable)"
