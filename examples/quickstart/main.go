// Quickstart: simulate one benchmark with the paper's best d-cache
// technique (selective direct-mapping + way-prediction) and i-cache
// way-prediction, and compare against the conventional parallel-access
// baseline.
//
//	go run ./examples/quickstart
//
// core.Run is the single-configuration entry point used here. For
// anything bigger, go through the parallel sweep engine instead of
// looping over core.Run yourself: internal/sweep expands declarative
// grids onto a worker pool, memoizes shared baselines, and emits
// deterministic JSON/CSV (cmd/sweep is its CLI). Both runs below replay
// one in-process capture of gcc's walker stream. Captures can also be
// filed: record with `tracegen -bench gcc -capture`, replay via
// core.Config.Trace or `cachesim -trace`, or add `-store DIR` and pass
// the printed mapping to `sweep -traces ... -tracestore DIR` — results
// are byte-identical to walking the generator. See docs/ARCHITECTURE.md
// for the package map and docs/TRACE_FORMAT.md for the capture format.
package main

import (
	"fmt"
	"log"

	"waycache/internal/access"
	"waycache/internal/core"
)

func main() {
	const bench = "gcc"
	const insts = 500_000

	// Baseline: an aggressive 1-cycle, 4-way, parallel-access 16 KB L1
	// pair — the configuration every figure in the paper normalizes to.
	base, err := core.Run(core.Config{Benchmark: bench, Insts: insts})
	if err != nil {
		log.Fatal(err)
	}

	// Technique: selective-DM + way-prediction d-cache, way-predicted
	// i-cache (BTB/RAS/SAWP).
	tech, err := core.Run(core.Config{
		Benchmark: bench,
		Insts:     insts,
		DPolicy:   access.DSelDMWayPred,
		IPolicy:   access.IWayPred,
	})
	if err != nil {
		log.Fatal(err)
	}

	c := core.Compare(base, tech)
	fmt.Printf("benchmark: %s (%d instructions)\n\n", bench, insts)
	fmt.Printf("baseline:  %d cycles (IPC %.2f), d-miss %.1f%%\n",
		base.Cycles(), base.Pipeline.IPC(), 100*base.DMissRate())
	fmt.Printf("technique: %d cycles (IPC %.2f)\n\n", tech.Cycles(), tech.Pipeline.IPC())

	fmt.Printf("L1 d-cache energy-delay: %.3f  (%.1f%% savings)\n", c.RelDCacheED, 100*(1-c.RelDCacheED))
	fmt.Printf("L1 i-cache energy-delay: %.3f  (%.1f%% savings)\n", c.RelICacheED, 100*(1-c.RelICacheED))
	fmt.Printf("processor  energy-delay: %.3f  (%.1f%% savings)\n", c.RelProcED, 100*(1-c.RelProcED))
	fmt.Printf("performance degradation: %.2f%%\n\n", 100*c.PerfLoss)

	perfect := core.PerfectWayPrediction(base)
	fmt.Printf("perfect way-prediction bound: %.3f processor energy-delay\n", perfect.RelProcED)
}
