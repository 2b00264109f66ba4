package experiments

import (
	"waycache/internal/access"
	"waycache/internal/cache"
	"waycache/internal/core"
	"waycache/internal/energy"
	"waycache/internal/isa"
	"waycache/internal/stats"
	"waycache/internal/sweep"
	"waycache/internal/trace"
	"waycache/internal/workload"
)

// Table3 reproduces "Cache energy and prediction overhead": the relative
// energies of the reference 16 KB 4-way cache's access types, from both
// the paper's published constants and our mini-CACTI model.
func Table3(o Options) *Report {
	paper := energy.PaperCosts()
	cacti := energy.DefaultCacti().MustCostsFor(energy.ReferenceGeometry)

	t := stats.NewTable("Table 3: cache energy and prediction overhead (relative units)",
		"energy component", "paper", "mini-cacti")
	row := func(name string, p, c float64) {
		t.Add(name, stats.F3(p), stats.F3(c))
	}
	row("parallel access cache read (4 ways read)", paper.ParallelRead(), cacti.ParallelRead())
	row("sequential/way-predicted/direct-mapped read (1 way)", paper.OneWayRead(), cacti.OneWayRead())
	row("mispredicted read (second probe)", paper.MispredictedRead(), cacti.MispredictedRead())
	row("cache write", paper.Write(), cacti.Write())
	row("tag array (included in all rows above)", paper.Tag, cacti.Tag)
	row("1024 x 4 bit prediction table access", paper.Table, cacti.Table)

	return &Report{
		Name:   "table3",
		Tables: []*stats.Table{t},
		Summary: map[string]float64{
			"oneWay": cacti.OneWayRead(),
			"write":  cacti.Write(),
			"tag":    cacti.Tag,
			"table":  cacti.Table,
		},
	}
}

// Table4 reproduces the d-cache miss-rate table: 16 KB direct-mapped vs
// 16 KB 4-way set-associative, per benchmark. It drives the caches
// directly from the instruction stream (no timing model), exactly like a
// functional cache simulation.
func Table4(o Options) *Report {
	o = o.withDefaults()
	t := stats.NewTable("Table 4: d-cache miss rates (16 KB, 32 B blocks)",
		"benchmark", "direct-mapped", "4-way set-assoc")
	sum := map[string]float64{}
	for _, name := range o.Benchmarks {
		p, err := workload.ByName(name)
		if err != nil {
			panic(err)
		}
		dm := cache.New(cache.Config{Name: "dm", SizeBytes: 16 << 10, Ways: 1, BlockBytes: 32})
		sa := cache.New(cache.Config{Name: "sa", SizeBytes: 16 << 10, Ways: 4, BlockBytes: 32})
		w := p.NewWalker()
		var in trace.Inst
		for i := int64(0); i < o.Insts; i++ {
			if !w.Next(&in) {
				break
			}
			if in.Kind.IsMem() {
				write := in.Kind == isa.KindStore
				dm.Access(in.Addr, write)
				sa.Access(in.Addr, write)
			}
		}
		t.Add(name, stats.Pct(dm.Stats().MissRate()), stats.Pct(sa.Stats().MissRate()))
		sum["dm_"+name] = dm.Stats().MissRate()
		sum["sa_"+name] = sa.Stats().MissRate()
	}
	return &Report{Name: "table4", Tables: []*stats.Table{t}, Summary: sum}
}

// Table5 reproduces the d-cache technique summary: average energy-delay
// savings and average performance loss for the six design options.
func Table5(o Options) *Report {
	type tech struct {
		name string
		pol  access.DPolicy
	}
	techs := []tech{
		{"sequential-access cache", access.DSequential},
		{"PC-based way-prediction", access.DWayPredPC},
		{"XOR-based way-prediction", access.DWayPredXOR},
		{"SelDM + parallel access", access.DSelDMParallel},
		{"SelDM + way-prediction", access.DSelDMWayPred},
		{"SelDM + sequential access", access.DSelDMSequential},
	}
	pols := []access.DPolicy{access.DParallel}
	for _, tc := range techs {
		pols = append(pols, tc.pol)
	}
	r := newRunner(o, sweep.Grid{DPolicies: pols}.Configs()...)
	t := stats.NewTable("Table 5: d-cache summary (averages over the suite)",
		"technique", "avg E-D savings", "avg perf loss", "max perf loss")
	sum := map[string]float64{}
	for _, tc := range techs {
		var eds, perfs []float64
		for _, bench := range r.opts.Benchmarks {
			base := r.run(core.Config{Benchmark: bench})
			res := r.run(core.Config{Benchmark: bench, DPolicy: tc.pol})
			c := core.Compare(base, res)
			eds = append(eds, 1-c.RelDCacheED)
			perfs = append(perfs, c.PerfLoss)
		}
		t.Add(tc.name, stats.Pct(stats.Mean(eds)), stats.Pct(stats.Mean(perfs)), stats.Pct(stats.Max(perfs)))
		sum["ed_"+tc.pol.String()] = stats.Mean(eds)
		sum["perf_"+tc.pol.String()] = stats.Mean(perfs)
	}
	return &Report{Name: "table5", Tables: []*stats.Table{t}, Summary: sum}
}
