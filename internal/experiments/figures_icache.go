package experiments

import (
	"waycache/internal/access"
	"waycache/internal/core"
	"waycache/internal/stats"
	"waycache/internal/sweep"
)

// Figure10 reproduces "Way-prediction for i-caches": 2-, 4- and 8-way
// i-caches with BTB/RAS/SAWP way prediction, each relative to the parallel
// i-cache of the same associativity, plus the access-source breakdown.
func Figure10(o Options) *Report {
	r := newRunner(o, sweep.Grid{
		IWays:     []int{2, 4, 8},
		IPolicies: []access.IPolicy{access.IParallel, access.IWayPred},
	}.Configs()...)
	t := stats.NewTable("Figure 10: i-cache way-prediction by associativity (relative E-D | perf)",
		"benchmark", "2-way", "4-way", "8-way")
	bd := stats.NewTable("Figure 10 (bottom): 4-way access breakdown",
		"benchmark", "table correct", "BTB/RAS correct", "no prediction", "misprediction", "miss")
	eds := map[int][]float64{}
	var accs []float64
	for _, bench := range r.opts.Benchmarks {
		cells := []string{bench}
		for _, ways := range []int{2, 4, 8} {
			base := r.run(core.Config{Benchmark: bench, IWays: ways})
			res := r.run(core.Config{Benchmark: bench, IWays: ways, IPolicy: access.IWayPred})
			c := core.Compare(base, res)
			cells = append(cells, stats.F3(c.RelICacheED)+" | "+stats.Pct(c.PerfLoss))
			eds[ways] = append(eds[ways], c.RelICacheED)
		}
		t.Add(cells...)

		res4 := r.run(core.Config{Benchmark: bench, IPolicy: access.IWayPred})
		fetches := float64(res4.IStats.Fetches)
		frac := func(c access.IClass) string {
			if fetches == 0 {
				return "0.0%"
			}
			return stats.Pct(float64(res4.IStats.ByClass[c]) / fetches)
		}
		bd.Add(bench, frac(access.IClassTableCorrect), frac(access.IClassBTBCorrect),
			frac(access.IClassNoPred), frac(access.IClassMispred), frac(access.IClassMiss))
		accs = append(accs, res4.IWayAccuracy())
	}
	t.Add("average", stats.F3(stats.Mean(eds[2])), stats.F3(stats.Mean(eds[4])), stats.F3(stats.Mean(eds[8])))
	return &Report{
		Name:   "fig10",
		Tables: []*stats.Table{t, bd},
		Summary: map[string]float64{
			"ed2": stats.Mean(eds[2]), "ed4": stats.Mean(eds[4]), "ed8": stats.Mean(eds[8]),
			"avgAccuracy": stats.Mean(accs),
		},
	}
}

// Figure11 reproduces "Overall processor energy": selective-DM +
// way-prediction d-cache combined with the way-predicted i-cache, reported
// as relative processor energy and energy-delay against the all-parallel
// baseline, with the perfect-way-prediction bound.
func Figure11(o Options) *Report {
	r := newRunner(o, core.Config{},
		core.Config{DPolicy: access.DSelDMWayPred, IPolicy: access.IWayPred})
	t := stats.NewTable("Figure 11: overall processor energy (d: SelDM+waypred, i: waypred)",
		"benchmark", "rel energy", "rel E-D", "perf degradation", "perfect-waypred E-D", "L1 share (base)")
	var relE, relED, perfs, perfED, shares []float64
	for _, bench := range r.opts.Benchmarks {
		base := r.run(core.Config{Benchmark: bench})
		tech := r.run(core.Config{
			Benchmark: bench,
			DPolicy:   access.DSelDMWayPred,
			IPolicy:   access.IWayPred,
		})
		c := core.Compare(base, tech)
		perfect := core.PerfectWayPrediction(base)
		t.Add(bench, stats.F3(c.RelProcEnergy), stats.F3(c.RelProcED),
			stats.Pct(c.PerfLoss), stats.F3(perfect.RelProcED), stats.Pct(base.Power.L1Share()))
		relE = append(relE, c.RelProcEnergy)
		relED = append(relED, c.RelProcED)
		perfs = append(perfs, c.PerfLoss)
		perfED = append(perfED, perfect.RelProcED)
		shares = append(shares, base.Power.L1Share())
	}
	t.Add("average", stats.F3(stats.Mean(relE)), stats.F3(stats.Mean(relED)),
		stats.Pct(stats.Mean(perfs)), stats.F3(stats.Mean(perfED)), stats.Pct(stats.Mean(shares)))
	return &Report{
		Name:   "fig11",
		Tables: []*stats.Table{t},
		Summary: map[string]float64{
			"relEnergy": stats.Mean(relE),
			"relED":     stats.Mean(relED),
			"perfLoss":  stats.Mean(perfs),
			"perfectED": stats.Mean(perfED),
			"l1Share":   stats.Mean(shares),
		},
	}
}
