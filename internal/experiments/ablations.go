package experiments

import (
	"fmt"

	"waycache/internal/access"
	"waycache/internal/core"
	"waycache/internal/stats"
	"waycache/internal/sweep"
)

// AblationTableSize sweeps the prediction-table size (512/1024/2048) for
// PC-based way-prediction and selective-DM. The paper fixes 1024 entries
// after observing that 2048 changes energy-delay and performance by less
// than 1 % — this experiment regenerates that insensitivity claim.
func AblationTableSize(o Options) *Report {
	r := newRunner(o, append(sweep.Grid{
		DPolicies:  []access.DPolicy{access.DWayPredPC, access.DSelDMWayPred},
		TableSizes: []int{512, 1024, 2048},
	}.Configs(), core.Config{})...)
	t := stats.NewTable("Ablation: prediction-table size (relative E-D | perf)",
		"benchmark", "policy", "512", "1024", "2048")
	sum := map[string]float64{}
	for _, pol := range []access.DPolicy{access.DWayPredPC, access.DSelDMWayPred} {
		var eds [3][]float64
		for _, bench := range r.opts.Benchmarks {
			base := r.run(core.Config{Benchmark: bench})
			cells := []string{bench, pol.String()}
			for i, size := range []int{512, 1024, 2048} {
				res := r.run(core.Config{Benchmark: bench, DPolicy: pol, TableSize: size})
				c := core.Compare(base, res)
				cells = append(cells, stats.F3(c.RelDCacheED)+" | "+stats.Pct(c.PerfLoss))
				eds[i] = append(eds[i], c.RelDCacheED)
			}
			t.Add(cells...)
		}
		for i, size := range []int{512, 1024, 2048} {
			sum[fmt.Sprintf("%s_%d", pol, size)] = stats.Mean(eds[i])
		}
	}
	return &Report{Name: "ablation-tables", Tables: []*stats.Table{t}, Summary: sum}
}

// AblationVictimList sweeps the victim-list size (4/16/64 entries). The
// paper uses 16 entries; too few entries age conflict records out before
// the threshold is reached, misclassifying conflicting blocks as
// non-conflicting and paying extra mapping mispredictions.
func AblationVictimList(o Options) *Report {
	r := newRunner(o, append(sweep.Grid{
		DPolicies:   []access.DPolicy{access.DSelDMWayPred},
		VictimSizes: []int{4, 16, 64},
	}.Configs(), core.Config{})...)
	t := stats.NewTable("Ablation: victim-list size, SelDM+waypred (relative E-D | mapping mispredicts per 1k loads)",
		"benchmark", "4 entries", "16 entries", "64 entries")
	sum := map[string]float64{}
	var eds [3][]float64
	var mpk [3][]float64
	for _, bench := range r.opts.Benchmarks {
		base := r.run(core.Config{Benchmark: bench})
		cells := []string{bench}
		for i, size := range []int{4, 16, 64} {
			res := r.run(core.Config{Benchmark: bench, DPolicy: access.DSelDMWayPred, VictimSize: size})
			c := core.Compare(base, res)
			perK := 1000 * float64(res.DStats.MispredDM) / float64(res.DStats.Loads)
			cells = append(cells, stats.F3(c.RelDCacheED)+" | "+fmt.Sprintf("%.1f", perK))
			eds[i] = append(eds[i], c.RelDCacheED)
			mpk[i] = append(mpk[i], perK)
		}
		t.Add(cells...)
	}
	for i, size := range []int{4, 16, 64} {
		sum[fmt.Sprintf("ed_%d", size)] = stats.Mean(eds[i])
		sum[fmt.Sprintf("mpk_%d", size)] = stats.Mean(mpk[i])
	}
	return &Report{Name: "ablation-victim", Tables: []*stats.Table{t}, Summary: sum}
}

// Related compares the paper's techniques against the related-work
// baselines discussed in its Section 5: Albonesi's selective cache ways
// (way-masking with a per-application way count chosen for <4 %
// performance loss) and Inoue et al.'s MRU way-prediction (modelled
// optimistically, without its critical-path liability).
func Related(o Options) *Report {
	// Declare all three selective-ways settings: the tuning loop below may
	// stop early, but simulating the rest in parallel is cheaper than
	// serializing.
	r := newRunner(o, append(sweep.Grid{
		DPolicies: []access.DPolicy{access.DParallel, access.DWayPredMRU, access.DSelDMWayPred},
	}.Configs(),
		core.Config{SelectiveWays: 1}, core.Config{SelectiveWays: 2}, core.Config{SelectiveWays: 3})...)
	t := stats.NewTable("Related work: selective ways and MRU way-prediction vs selective-DM (16K 4-way)",
		"benchmark", "sel-ways best", "sel-ways E-D | perf", "MRU E-D | perf", "SelDM+WP E-D | perf")
	sum := map[string]float64{}
	var swED, mruED, sdmED []float64
	for _, bench := range r.opts.Benchmarks {
		base := r.run(core.Config{Benchmark: bench})

		// Albonesi tuning: smallest active-way count whose performance
		// loss stays under 4 %; if even 3 ways violates it, keep all 4
		// (no savings possible) — the paper's criticism of the scheme.
		chosen, chosenC := 4, core.Comparison{RelTime: 1, RelDCacheED: 1}
		for _, active := range []int{1, 2, 3} {
			res := r.run(core.Config{Benchmark: bench, SelectiveWays: active})
			c := core.Compare(base, res)
			if c.PerfLoss < 0.04 {
				chosen, chosenC = active, c
				break
			}
		}

		mru := r.run(core.Config{Benchmark: bench, DPolicy: access.DWayPredMRU})
		sdm := r.run(core.Config{Benchmark: bench, DPolicy: access.DSelDMWayPred})
		cMRU, cSDM := core.Compare(base, mru), core.Compare(base, sdm)

		t.Add(bench,
			fmt.Sprintf("%d/4 ways", chosen),
			stats.F3(chosenC.RelDCacheED)+" | "+stats.Pct(chosenC.PerfLoss),
			stats.F3(cMRU.RelDCacheED)+" | "+stats.Pct(cMRU.PerfLoss),
			stats.F3(cSDM.RelDCacheED)+" | "+stats.Pct(cSDM.PerfLoss))
		swED = append(swED, chosenC.RelDCacheED)
		mruED = append(mruED, cMRU.RelDCacheED)
		sdmED = append(sdmED, cSDM.RelDCacheED)
	}
	t.Add("average", "", stats.F3(stats.Mean(swED)), stats.F3(stats.Mean(mruED)), stats.F3(stats.Mean(sdmED)))
	sum["selWaysED"] = stats.Mean(swED)
	sum["mruED"] = stats.Mean(mruED)
	sum["sdmED"] = stats.Mean(sdmED)
	return &Report{Name: "related", Tables: []*stats.Table{t}, Summary: sum}
}
