// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -run all
//	experiments -run table4,fig6,fig11 -insts 1000000
//	experiments -run fig8 -benchmarks gcc,swim -workers 4
//	experiments -run table5 -json > table5.json
//	experiments -run all -store results/   # recall cells simulated before
//
// With -store naming a directory, simulations are memoized in the on-disk
// result store (internal/resultdb) shared with cmd/sweep and waycached, so
// re-running experiments — or running them after a sweep over the same
// configurations — recalls results instead of re-simulating them.
//
// Each experiment prints the same rows/series the paper reports, produced
// by full simulations of the synthetic benchmark suite. Every experiment
// declares its cells once and runs them as one sweep on a shared engine
// (internal/sweep): -workers sizes that engine, and its memoized result
// store is shared across all selected experiments so common baselines are
// simulated once. The stderr summary counts simulations and memo hits
// across those sweeps (a hit is a declared cell another experiment, or
// -store, already holds). -json replaces the text tables with a JSON array
// of {name, summary} objects.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"waycache/internal/experiments"
	"waycache/internal/resultdb"
	"waycache/internal/sweep"
)

func main() {
	run := flag.String("run", "all", "comma-separated experiment names (table3..table5, fig4..fig11) or 'all'")
	insts := flag.Int64("insts", 400_000, "instructions per benchmark per configuration")
	benches := flag.String("benchmarks", "", "comma-separated benchmark subset (default: full suite)")
	workers := flag.Int("workers", runtime.NumCPU(), "parallel simulations on the engine all experiments share")
	storeDir := flag.String("store", "", "directory of the on-disk result store; repeated runs recall results instead of re-simulating")
	jsonOut := flag.Bool("json", false, "emit a JSON array of {name, summary} instead of text tables")
	list := flag.Bool("list", false, "list available experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Printf("%-8s %s\n", e.Name, e.Desc)
		}
		return
	}

	// Normalize trims blanks, expands "all" and rejects unknown names, so
	// a bad list fails here rather than inside an experiment.
	g, err := sweep.Grid{Benchmarks: strings.Split(*benches, ",")}.Normalize()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// One engine for the whole invocation: experiments share its store, so
	// e.g. fig4..fig6 and table5 simulate their common baselines once.
	// With -store that memoization extends across invocations via disk.
	store := sweep.NewStore()
	if *storeDir != "" {
		var db *resultdb.DB
		if store, db, err = sweep.OpenDiskStore(*storeDir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			if cerr := db.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "experiments: closing store:", cerr)
			}
		}()
	}
	eng := sweep.New(sweep.Options{Workers: *workers, Store: store})
	opts := experiments.Options{Insts: *insts, Benchmarks: g.Benchmarks, Engine: eng}

	var names []string
	if *run == "all" {
		for _, e := range experiments.Registry() {
			names = append(names, e.Name)
		}
	} else {
		names = strings.Split(*run, ",")
	}

	type jsonReport struct {
		Name    string             `json:"name"`
		Summary map[string]float64 `json:"summary"`
	}
	var reports []jsonReport

	for _, name := range names {
		fn, err := experiments.ByName(strings.TrimSpace(name))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		start := time.Now()
		rep := fn(opts)
		if *jsonOut {
			reports = append(reports, jsonReport{Name: rep.Name, Summary: rep.Summary})
			fmt.Fprintf(os.Stderr, "[%s completed in %v]\n", name, time.Since(start).Round(time.Millisecond))
			continue
		}
		if _, err := rep.WriteTo(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	fmt.Fprintf(os.Stderr, "[sweep store: %d simulations, %d memo hits, %d results in store]\n",
		eng.Store().Misses(), eng.Store().Hits(), eng.Store().Len())
	if berr := eng.Store().BackendErr(); berr != nil {
		fmt.Fprintln(os.Stderr, "experiments: warning: result store degraded:", berr)
	}
}
