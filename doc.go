// Package waycache is a reproduction of "Reducing Set-Associative Cache
// Energy via Way-Prediction and Selective Direct-Mapping" (Powell,
// Agarwal, Vijaykumar, Falsafi, Roy — MICRO-34, 2001).
//
// The library lives under internal/: core (simulator API), access (the
// paper's cache access policies), cache, predict, branch, energy, wattch,
// pipeline, program, workload, sweep, experiments. The experiment harness
// in internal/experiments regenerates every table and figure of the
// paper's evaluation; cmd/experiments exposes it on the command line, and
// the benchmarks in bench_test.go wrap each experiment as a testing.B
// target.
//
// internal/sweep is the design-space sweep engine: it expands declarative
// parameter grids (benchmarks x policies x geometries x latencies) into
// jobs, executes them on a bounded context-cancellable worker pool, and
// memoizes results by canonical configuration so shared baselines are
// simulated once across experiments. Sweep output (JSON or CSV) is ordered
// by grid position and byte-identical for any worker count. All
// experiments submit their simulations through the engine; cmd/sweep runs
// arbitrary grids far beyond the paper's figures.
//
// The memoization behind the engine is pluggable (sweep.Backend): the
// in-memory tier optionally fronts internal/resultdb, a crash-safe
// append-only on-disk store of canonically-encoded results
// (core.EncodeResult) keyed by core.Config.Key, so repeated runs across
// processes recall finished configurations instead of re-simulating them
// (the -store flag of cachesim, sweep and experiments). internal/server
// and cmd/waycached expose the same engine and store as a long-lived HTTP
// service — submit grids, poll job progress, query and aggregate the
// accumulated corpus — documented in docs/HTTP_API.md.
//
// internal/trace additionally defines the capture/replay substrate: a
// versioned, varint-delta-compressed on-disk format for dynamic
// instruction streams (trace.Writer, replayed through trace.Arena)
// behind the same trace.WindowSource interface the live workload walkers
// reach the pipeline through, so cachesim, sweeps and experiments run
// identically — byte for byte — from a recorded file or a live
// generator. cmd/tracegen -capture records
// traces; cachesim -trace and sweep -trace replay them.
//
// See docs/ARCHITECTURE.md for the package map and data-flow diagram, and
// docs/TRACE_FORMAT.md for the byte-level trace file specification.
package waycache
