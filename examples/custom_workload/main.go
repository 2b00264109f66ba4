// Custom workload: define your own synthetic benchmark — code shape,
// branch behaviour and data-reference streams — and evaluate cache access
// policies on it through the public simulator API.
//
// The example models a small in-memory key-value store: hash-bucket
// lookups (pointer chases), a hot metadata block, an append log
// (sequential stores), and two tables that collide in the direct-mapped
// position — exactly the kind of access selective-DM must detect.
//
//	go run ./examples/custom_workload
package main

import (
	"fmt"
	"log"
	"os"

	"waycache/internal/access"
	"waycache/internal/core"
	"waycache/internal/program"
	"waycache/internal/stats"
	"waycache/internal/trace"
	"waycache/internal/workload"
)

func main() {
	heap := workload.HeapBase
	g := workload.GlobalBase

	kv := workload.Profile{
		Name: "kvstore",
		Seed: 0xC0FFEE,

		Funcs: 24, BlocksPerFunc: [2]int{5, 10}, InstsPerBlock: [2]int{5, 12},
		LoadFrac: 0.30, StoreFrac: 0.12,
		LoopFrac: 0.25, LoopTrip: 12,
		CallFrac: 0.10, BiasedFrac: 0.72, RandomFrac: 0.06, TakenBias: 0.9, FallFrac: 0.1,
		OffsetMax: 24,

		Streams: []program.Stream{
			// Hash-bucket chains: pointer chases over 64 KB of buckets.
			{Name: "buckets", Kind: program.StreamChase, Base: heap, Length: 64 << 10, AdvanceEvery: 3, Align: 8},
			// Hot metadata: a few cache blocks touched constantly.
			{Name: "meta", Kind: program.StreamGlobal, Base: g},
			// Append log: streaming sequential stores.
			{Name: "log", Kind: program.StreamSeq, Base: heap + 4<<20, Length: 1 << 20, Stride: 8, AdvanceEvery: 2, Align: 8},
			// Two index tables exactly 16 KB apart: they fight over one
			// direct-mapped slot but coexist in a 4-way set.
			{Name: "indexes", Kind: program.StreamCyclic, Base: g + 0x1C00, NWays: 2, CycleStride: 16 << 10, AdvanceEvery: 2},
		},
		StreamWeights: []float64{0.18, 0.42, 0.25, 0.15},
	}

	const insts = 500_000
	base, err := core.Run(core.Config{Benchmark: kv.Name, Source: trace.Windowed(kv.NewWalker(), 512), Insts: insts})
	if err != nil {
		log.Fatal(err)
	}

	t := stats.NewTable("kvstore: d-cache policies (relative to parallel)",
		"policy", "rel E-D", "perf loss", "DM fraction", "mispredicted")
	for _, pol := range []access.DPolicy{
		access.DSequential, access.DWayPredPC, access.DSelDMWayPred, access.DSelDMSequential,
	} {
		res, err := core.Run(core.Config{Benchmark: kv.Name, Source: trace.Windowed(kv.NewWalker(), 512), Insts: insts, DPolicy: pol})
		if err != nil {
			log.Fatal(err)
		}
		c := core.Compare(base, res)
		loads := float64(res.DStats.Loads)
		t.Add(pol.String(), stats.F3(c.RelDCacheED), stats.Pct(c.PerfLoss),
			stats.Pct(float64(res.DStats.ByClass[access.ClassDM])/loads),
			stats.Pct(float64(res.DStats.ByClass[access.ClassMispred])/loads))
	}
	if _, err := t.WriteTo(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("The cyclic 'indexes' stream ping-pongs in a direct-mapped cache; watch")
	fmt.Println("selective-DM move it to set-associative placement via the victim list,")
	fmt.Println("keeping the DM fraction high without paying conflict misses.")
}
