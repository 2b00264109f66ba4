#!/bin/sh
# Determinism gate: simulation outputs are contractually byte-stable.
#
# Runs a small sweep grid twice through both trace sources — the live
# workload walker and a fresh .wct capture replay — and byte-diffs every
# output against the checked-in golden fixtures (testdata/golden_sweep.json
# / .csv), then checks that three -shard pieces concatenate to the golden
# CSV body. Any drift means a change to simulation behaviour, which a perf
# refactor must not cause; regenerate the fixtures (GOLDEN=regen) only for
# a PR that intentionally changes the model.
set -eu

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/sweep" ./cmd/sweep
go build -o "$tmp/tracegen" ./cmd/tracegen

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

# Trace-replay grid, twice, from a fresh capture of the same benchmarks.
mkdir "$tmp/traces"
for b in $(echo "$BENCHES" | tr , ' '); do
    "$tmp/tracegen" -capture -bench "$b" -n "$INSTS" -o "$tmp/traces/$b.wct" >/dev/null
done
run_sweep json "$tmp/replay1.json" -trace "$tmp/traces"
run_sweep json "$tmp/replay2.json" -trace "$tmp/traces"
run_sweep csv "$tmp/replay1.csv" -trace "$tmp/traces"
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
run_sweep json "$tmp/replay_w4.json" -workers 4 -trace "$tmp/traces"
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

echo "determinism gate: OK (walker == replay == golden, serial and 4 workers, twice; 3 shards == golden)"
