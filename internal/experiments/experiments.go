// Package experiments regenerates every table and figure in the paper's
// evaluation (Tables 3-5, Figures 4-11) on the synthetic benchmark suite.
//
// Each experiment function declares the cells it needs once, runs them as
// one sweep on the engine (memoizing shared baselines), returns a Report
// with the same rows/series the paper plots, and records headline numbers
// in Report.Summary for tests and benchmarks.
// cmd/experiments exposes them on the command line; the repository-level
// benchmark suite (bench_test.go) wraps each one.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"waycache/internal/core"
	"waycache/internal/stats"
	"waycache/internal/sweep"
	"waycache/internal/workload"
)

// Options configures an experiment run.
type Options struct {
	// Insts per benchmark per configuration (default 400,000).
	Insts int64
	// Benchmarks to include (default: the full Table 2 suite).
	Benchmarks []string
	// Engine runs every experiment's declared cells. Sharing one engine —
	// and with it a memoized result store — across experiments simulates
	// baselines common to several tables/figures exactly once; its
	// Workers size the fan-out. Nil means a private default engine.
	Engine *sweep.Engine
}

func (o Options) withDefaults() Options {
	if o.Insts == 0 {
		o.Insts = 400_000
	}
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = workload.Names()
	}
	if o.Engine == nil {
		o.Engine = sweep.New(sweep.Options{})
	}
	return o
}

// Report is the output of one experiment.
type Report struct {
	Name    string
	Tables  []*stats.Table
	Summary map[string]float64
}

// WriteTo renders all tables.
func (r *Report) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, t := range r.Tables {
		n, err := t.WriteTo(w)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Func is an experiment entry point.
type Func func(Options) *Report

// Registry maps experiment names (table3..table5, fig4..fig11) to their
// functions, in the paper's order.
func Registry() []struct {
	Name string
	Desc string
	Run  Func
} {
	return []struct {
		Name string
		Desc string
		Run  Func
	}{
		{"table3", "cache energy and prediction overhead", Table3},
		{"table4", "d-cache miss rates, direct-mapped vs 4-way", Table4},
		{"table5", "d-cache technique summary", Table5},
		{"fig4", "sequential-access cache energy-delay", Figure4},
		{"fig5", "PC- and XOR-based way-prediction", Figure5},
		{"fig6", "selective-DM schemes", Figure6},
		{"fig7", "effect of cache size on selective-DM", Figure7},
		{"fig8", "effect of associativity on selective-DM", Figure8},
		{"fig9", "selective-DM schemes, 2-cycle cache", Figure9},
		{"fig10", "way-prediction for i-caches", Figure10},
		{"fig11", "overall processor energy", Figure11},
		{"ablation-tables", "prediction-table size sensitivity", AblationTableSize},
		{"ablation-victim", "victim-list size sensitivity", AblationVictimList},
		{"related", "selective cache ways and MRU way-prediction baselines", Related},
	}
}

// ByName returns the named experiment.
func ByName(name string) (Func, error) {
	for _, e := range Registry() {
		if e.Name == name {
			return e.Run, nil
		}
	}
	var known []string
	for _, e := range Registry() {
		known = append(known, e.Name)
	}
	sort.Strings(known)
	return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, known)
}

// runner holds an experiment's simulations. Each experiment declares its
// cells once, as benchmark-less templates; newRunner crosses them with
// Options.Benchmarks, pins Options.Insts and runs the lot in one sweep over
// the engine's worker pool (memoized by canonical config, across
// experiments when Options.Engine is shared). The reporting loops then
// read cells back with run.
type runner struct {
	opts    Options
	results map[string]*core.Result
}

func newRunner(o Options, cells ...core.Config) *runner {
	o = o.withDefaults()
	cfgs := make([]core.Config, 0, len(cells)*len(o.Benchmarks))
	for _, bench := range o.Benchmarks {
		for _, c := range cells {
			c.Benchmark, c.Insts = bench, o.Insts
			cfgs = append(cfgs, c)
		}
	}
	results, err := o.Engine.RunConfigs(context.Background(), cfgs)
	if err != nil {
		// Experiment configs are static data, exactly as with core.MustRun
		// before the sweep engine existed.
		panic(err)
	}
	r := &runner{opts: o, results: make(map[string]*core.Result, len(cfgs))}
	for i, c := range cfgs {
		key, _ := c.Key()
		r.results[key] = results[i]
	}
	return r
}

// run returns a declared cell's result. Reading a cell the experiment did
// not declare is a programming error, like any other static-data fault.
func (r *runner) run(c core.Config) *core.Result {
	c.Insts = r.opts.Insts
	key, _ := c.Key()
	res, ok := r.results[key]
	if !ok {
		panic("experiments: read of undeclared cell " + key)
	}
	return res
}
