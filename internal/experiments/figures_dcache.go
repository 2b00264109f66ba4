package experiments

import (
	"waycache/internal/access"
	"waycache/internal/core"
	"waycache/internal/stats"
	"waycache/internal/sweep"
)

// Figure4 reproduces "Sequential-access cache energy-delay": relative
// d-cache energy-delay and performance degradation per benchmark, vs the
// 1-cycle parallel-access baseline.
func Figure4(o Options) *Report {
	r := newRunner(o, sweep.Grid{DPolicies: []access.DPolicy{access.DParallel, access.DSequential}}.Configs()...)
	t := stats.NewTable("Figure 4: sequential-access cache, relative to 1-cycle parallel",
		"benchmark", "relative E-D", "perf degradation")
	var eds, perfs []float64
	for _, bench := range r.opts.Benchmarks {
		base := r.run(core.Config{Benchmark: bench})
		seq := r.run(core.Config{Benchmark: bench, DPolicy: access.DSequential})
		c := core.Compare(base, seq)
		t.Add(bench, stats.F3(c.RelDCacheED), stats.Pct(c.PerfLoss))
		eds = append(eds, c.RelDCacheED)
		perfs = append(perfs, c.PerfLoss)
	}
	t.Add("average", stats.F3(stats.Mean(eds)), stats.Pct(stats.Mean(perfs)))
	return &Report{
		Name:   "fig4",
		Tables: []*stats.Table{t},
		Summary: map[string]float64{
			"avgRelED":    stats.Mean(eds),
			"avgPerfLoss": stats.Mean(perfs),
			"maxPerfLoss": stats.Max(perfs),
		},
	}
}

// Figure5 reproduces "PC- and XOR-based way-prediction": relative
// energy-delay, performance degradation and prediction accuracy for both
// handles.
func Figure5(o Options) *Report {
	r := newRunner(o, sweep.Grid{DPolicies: []access.DPolicy{
		access.DParallel, access.DWayPredPC, access.DWayPredXOR}}.Configs()...)
	t := stats.NewTable("Figure 5: PC- vs XOR-based way-prediction",
		"benchmark", "PC rel E-D", "PC perf", "PC accuracy",
		"XOR rel E-D", "XOR perf", "XOR accuracy")
	var pcED, pcPerf, pcAcc, xorED, xorPerf, xorAcc []float64
	for _, bench := range r.opts.Benchmarks {
		base := r.run(core.Config{Benchmark: bench})
		pc := r.run(core.Config{Benchmark: bench, DPolicy: access.DWayPredPC})
		xor := r.run(core.Config{Benchmark: bench, DPolicy: access.DWayPredXOR})
		cp, cx := core.Compare(base, pc), core.Compare(base, xor)
		t.Add(bench,
			stats.F3(cp.RelDCacheED), stats.Pct(cp.PerfLoss), stats.Pct(pc.WayPredAccuracy()),
			stats.F3(cx.RelDCacheED), stats.Pct(cx.PerfLoss), stats.Pct(xor.WayPredAccuracy()))
		pcED = append(pcED, cp.RelDCacheED)
		pcPerf = append(pcPerf, cp.PerfLoss)
		pcAcc = append(pcAcc, pc.WayPredAccuracy())
		xorED = append(xorED, cx.RelDCacheED)
		xorPerf = append(xorPerf, cx.PerfLoss)
		xorAcc = append(xorAcc, xor.WayPredAccuracy())
	}
	t.Add("average",
		stats.F3(stats.Mean(pcED)), stats.Pct(stats.Mean(pcPerf)), stats.Pct(stats.Mean(pcAcc)),
		stats.F3(stats.Mean(xorED)), stats.Pct(stats.Mean(xorPerf)), stats.Pct(stats.Mean(xorAcc)))
	return &Report{
		Name:   "fig5",
		Tables: []*stats.Table{t},
		Summary: map[string]float64{
			"pcAcc": stats.Mean(pcAcc), "xorAcc": stats.Mean(xorAcc),
			"pcRelED": stats.Mean(pcED), "xorRelED": stats.Mean(xorED),
			"pcPerf": stats.Mean(pcPerf), "xorPerf": stats.Mean(xorPerf),
		},
	}
}

// breakdownRow renders a d-cache access-class breakdown as fractions of
// loads.
func breakdownRow(res *core.Result) []string {
	loads := float64(res.DStats.Loads)
	frac := func(c access.LoadClass) string {
		if loads == 0 {
			return "0.0%"
		}
		return stats.Pct(float64(res.DStats.ByClass[c]) / loads)
	}
	return []string{
		frac(access.ClassDM), frac(access.ClassParallel), frac(access.ClassWayPred),
		frac(access.ClassSeq), frac(access.ClassMispred), frac(access.ClassMiss),
	}
}

// Figure6 reproduces "Selective-DM schemes": energy-delay and performance
// for selective-DM with parallel, way-predicted and sequential handling of
// conflicting accesses, plus the access breakdown.
func Figure6(o Options) *Report {
	ed := stats.NewTable("Figure 6: selective-DM schemes (relative E-D | perf degradation)",
		"benchmark", "SelDM+parallel", "SelDM+waypred", "SelDM+sequential",
		"waypred-PC (ref)", "sequential (ref)")
	bd := stats.NewTable("Figure 6 (bottom): access breakdown for SelDM+waypred",
		"benchmark", "direct-mapped", "parallel", "way-predicted", "sequential", "mispredicted", "miss")

	pols := []access.DPolicy{
		access.DSelDMParallel, access.DSelDMWayPred, access.DSelDMSequential,
		access.DWayPredPC, access.DSequential,
	}
	r := newRunner(o, sweep.Grid{DPolicies: append([]access.DPolicy{access.DParallel}, pols...)}.Configs()...)
	sums := make(map[access.DPolicy][]float64)
	perfs := make(map[access.DPolicy][]float64)
	var dmFracs []float64
	for _, bench := range r.opts.Benchmarks {
		base := r.run(core.Config{Benchmark: bench})
		cells := []string{bench}
		for _, pol := range pols {
			res := r.run(core.Config{Benchmark: bench, DPolicy: pol})
			c := core.Compare(base, res)
			cells = append(cells, stats.F3(c.RelDCacheED)+" | "+stats.Pct(c.PerfLoss))
			sums[pol] = append(sums[pol], c.RelDCacheED)
			perfs[pol] = append(perfs[pol], c.PerfLoss)
		}
		ed.Add(cells...)

		wp := r.run(core.Config{Benchmark: bench, DPolicy: access.DSelDMWayPred})
		bd.Add(append([]string{bench}, breakdownRow(wp)...)...)
		dmFracs = append(dmFracs, float64(wp.DStats.ByClass[access.ClassDM])/float64(wp.DStats.Loads))
	}
	avg := []string{"average"}
	for _, pol := range pols {
		avg = append(avg, stats.F3(stats.Mean(sums[pol]))+" | "+stats.Pct(stats.Mean(perfs[pol])))
	}
	ed.Add(avg...)

	return &Report{
		Name:   "fig6",
		Tables: []*stats.Table{ed, bd},
		Summary: map[string]float64{
			"sdmParED":  stats.Mean(sums[access.DSelDMParallel]),
			"sdmWpED":   stats.Mean(sums[access.DSelDMWayPred]),
			"sdmSeqED":  stats.Mean(sums[access.DSelDMSequential]),
			"wpED":      stats.Mean(sums[access.DWayPredPC]),
			"seqED":     stats.Mean(sums[access.DSequential]),
			"sdmWpPerf": stats.Mean(perfs[access.DSelDMWayPred]),
			"dmFrac":    stats.Mean(dmFracs),
		},
	}
}

// Figure7 reproduces "Effect of cache size on selective-DM": 16 KB vs
// 32 KB selective-DM + way-prediction, each relative to the parallel cache
// of the same size.
func Figure7(o Options) *Report {
	r := newRunner(o, sweep.Grid{
		DSizes:    []int{16 << 10, 32 << 10},
		DPolicies: []access.DPolicy{access.DParallel, access.DSelDMWayPred},
	}.Configs()...)
	t := stats.NewTable("Figure 7: selective-DM+waypred, 16K vs 32K (relative E-D | perf)",
		"benchmark", "16K", "32K")
	sum := map[string]float64{}
	var ed16, ed32 []float64
	for _, bench := range r.opts.Benchmarks {
		cells := []string{bench}
		for _, size := range []int{16 << 10, 32 << 10} {
			base := r.run(core.Config{Benchmark: bench, DSize: size})
			res := r.run(core.Config{Benchmark: bench, DSize: size, DPolicy: access.DSelDMWayPred})
			c := core.Compare(base, res)
			cells = append(cells, stats.F3(c.RelDCacheED)+" | "+stats.Pct(c.PerfLoss))
			if size == 16<<10 {
				ed16 = append(ed16, c.RelDCacheED)
			} else {
				ed32 = append(ed32, c.RelDCacheED)
			}
		}
		t.Add(cells...)
	}
	t.Add("average", stats.F3(stats.Mean(ed16)), stats.F3(stats.Mean(ed32)))
	sum["ed16"] = stats.Mean(ed16)
	sum["ed32"] = stats.Mean(ed32)
	return &Report{Name: "fig7", Tables: []*stats.Table{t}, Summary: sum}
}

// Figure8 reproduces "Effect of associativity on selective-DM": 2-, 4- and
// 8-way selective-DM + way-prediction, each relative to the parallel cache
// of the same associativity, with the access breakdown.
func Figure8(o Options) *Report {
	r := newRunner(o, sweep.Grid{
		DWays:     []int{2, 4, 8},
		DPolicies: []access.DPolicy{access.DParallel, access.DSelDMWayPred},
	}.Configs()...)
	t := stats.NewTable("Figure 8: selective-DM+waypred by associativity (relative E-D | perf)",
		"benchmark", "2-way", "4-way", "8-way")
	bd := stats.NewTable("Figure 8 (bottom): 8-way access breakdown",
		"benchmark", "direct-mapped", "parallel", "way-predicted", "sequential", "mispredicted", "miss")
	eds := map[int][]float64{}
	for _, bench := range r.opts.Benchmarks {
		cells := []string{bench}
		for _, ways := range []int{2, 4, 8} {
			base := r.run(core.Config{Benchmark: bench, DWays: ways})
			res := r.run(core.Config{Benchmark: bench, DWays: ways, DPolicy: access.DSelDMWayPred})
			c := core.Compare(base, res)
			cells = append(cells, stats.F3(c.RelDCacheED)+" | "+stats.Pct(c.PerfLoss))
			eds[ways] = append(eds[ways], c.RelDCacheED)
		}
		t.Add(cells...)
		res8 := r.run(core.Config{Benchmark: bench, DWays: 8, DPolicy: access.DSelDMWayPred})
		bd.Add(append([]string{bench}, breakdownRow(res8)...)...)
	}
	t.Add("average", stats.F3(stats.Mean(eds[2])), stats.F3(stats.Mean(eds[4])), stats.F3(stats.Mean(eds[8])))
	return &Report{
		Name:   "fig8",
		Tables: []*stats.Table{t, bd},
		Summary: map[string]float64{
			"ed2": stats.Mean(eds[2]), "ed4": stats.Mean(eds[4]), "ed8": stats.Mean(eds[8]),
		},
	}
}

// Figure9 reproduces "Selective-DM schemes (high-latency)": the 2-cycle
// base d-cache, where a mispredicted or sequential access takes 3 cycles.
// Everything is relative to the 2-cycle parallel cache.
func Figure9(o Options) *Report {
	t := stats.NewTable("Figure 9: 2-cycle d-cache (relative E-D | perf degradation)",
		"benchmark", "SelDM+waypred", "SelDM+sequential", "sequential")
	pols := []access.DPolicy{access.DSelDMWayPred, access.DSelDMSequential, access.DSequential}
	r := newRunner(o, sweep.Grid{
		DLatencies: []int{2},
		DPolicies:  append([]access.DPolicy{access.DParallel}, pols...),
	}.Configs()...)
	eds := map[access.DPolicy][]float64{}
	perfs := map[access.DPolicy][]float64{}
	for _, bench := range r.opts.Benchmarks {
		base := r.run(core.Config{Benchmark: bench, DLatency: 2})
		cells := []string{bench}
		for _, pol := range pols {
			res := r.run(core.Config{Benchmark: bench, DLatency: 2, DPolicy: pol})
			c := core.Compare(base, res)
			cells = append(cells, stats.F3(c.RelDCacheED)+" | "+stats.Pct(c.PerfLoss))
			eds[pol] = append(eds[pol], c.RelDCacheED)
			perfs[pol] = append(perfs[pol], c.PerfLoss)
		}
		t.Add(cells...)
	}
	avg := []string{"average"}
	for _, pol := range pols {
		avg = append(avg, stats.F3(stats.Mean(eds[pol]))+" | "+stats.Pct(stats.Mean(perfs[pol])))
	}
	t.Add(avg...)
	return &Report{
		Name:   "fig9",
		Tables: []*stats.Table{t},
		Summary: map[string]float64{
			"sdmWpED":   stats.Mean(eds[access.DSelDMWayPred]),
			"sdmSeqED":  stats.Mean(eds[access.DSelDMSequential]),
			"seqED":     stats.Mean(eds[access.DSequential]),
			"seqPerf":   stats.Mean(perfs[access.DSequential]),
			"sdmWpPerf": stats.Mean(perfs[access.DSelDMWayPred]),
		},
	}
}
