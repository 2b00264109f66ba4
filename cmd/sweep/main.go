// Command sweep runs arbitrary design-space sweeps over the simulator —
// grids far beyond the fixed ones the paper plots — on a parallel worker
// pool with memoized, deterministically ordered results.
//
// Usage:
//
//	sweep -dways 1,2,4,8,16 -dpolicies all -benchmarks all -workers 8 -out results.json
//	sweep -benchmarks gcc,swim -dpolicies parallel,seldm+waypred -dlatencies 1,2 -format csv
//	sweep -dsizes 8k,16k,32k,64k -dpolicies seldm+waypred -insts 1000000
//	sweep -benchmarks all -dways 1,4 -shard 0/4   # first quarter of the grid
//	sweep -benchmarks all -dpolicies all -trace traces   # replay captures
//	sweep -benchmarks all -dpolicies all -store results/   # incremental runs
//
// With -store naming a directory, results are memoized in the crash-safe
// on-disk store (internal/resultdb) that waycached serves: a re-run of an
// identical grid simulates nothing — every cell is recalled from disk with
// byte-identical output — and an overlapping grid simulates only its new
// cells.
//
// With -trace naming a directory of captured trace files (written by
// tracegen -capture, one <benchmark>.wct per benchmark), cells whose
// benchmark has a valid capture covering -insts replay it instead of
// re-walking the generator — identical records, no generation cost.
// Benchmarks without a usable capture fall back to the walker, and every
// fallback is reported on stderr with its reason (missing file, stale
// seed, too few instructions) so a -trace run that re-simulated is
// visible, never silent.
//
// The grid is the cartesian product of every dimension flag; omitted
// dimensions stay at the paper's Table 1 defaults. Output (JSON or CSV)
// is ordered by grid position, so it is byte-identical for any -workers
// value. Shards 0/n..n-1/n (the spans sweep.SpanOf cuts) keep that
// order: their CSV bodies (headers stripped) concatenate to the exact
// full-grid body, and their JSON arrays merge element-wise into the
// full-grid array — the property the distributed coordinator
// (cmd/sweepctl, docs/DISTRIBUTED.md) is built on. Interrupting (ctrl-C)
// cancels the sweep promptly.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"

	"waycache/internal/resultdb"
	"waycache/internal/sweep"
	"waycache/internal/tracestore"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func run() error {
	gridFlags := sweep.RegisterGridFlags(flag.CommandLine)
	storeDir := flag.String("store", "", "directory of the on-disk result store; repeated runs recall results instead of re-simulating")
	traceDir := flag.String("trace", "", "directory of captured traces (<benchmark>.wct); matching benchmarks replay instead of re-walking")
	traceStore := flag.String("tracestore", "", "content-addressed trace store directory resolving trace://<hash> references (-traces)")
	workers := flag.Int("workers", runtime.NumCPU(), "parallel simulations")
	shard := flag.String("shard", "", "run only shard i of n contiguous grid shards, as 'i/n'")
	format := flag.String("format", "json", "output format: json or csv")
	out := flag.String("out", "-", "output file ('-' for stdout)")
	progress := flag.Bool("progress", true, "report live progress on stderr")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sweep: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "sweep: memprofile:", err)
			}
		}()
	}

	g, err := gridFlags.Grid()
	if err != nil {
		return err
	}

	cfgs := g.Configs()
	if *shard != "" {
		i, n, err := sweep.ParseShard(*shard)
		if err != nil {
			return err
		}
		lo, hi := sweep.SpanOf(len(cfgs), i, n)
		cfgs = cfgs[lo:hi]
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := sweep.Options{Workers: *workers, TraceDir: *traceDir}
	if *traceStore != "" {
		if opts.TraceStore, err = tracestore.Open(*traceStore); err != nil {
			return err
		}
	}
	store := sweep.NewStore()
	if *storeDir != "" {
		var db *resultdb.DB
		if store, db, err = sweep.OpenDiskStore(*storeDir); err != nil {
			return err
		}
		// Close only releases the log; results are already durable in it,
		// so a close failure is worth a warning, not a bad exit.
		defer func() {
			if cerr := db.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "sweep: closing store:", cerr)
			}
		}()
	}
	opts.Store = store
	if *progress {
		opts.Progress = sweep.TextProgress(os.Stderr, store)
	}
	eng := sweep.New(opts)

	fmt.Fprintf(os.Stderr, "sweep: %d configs, %d workers\n", len(cfgs), *workers)
	results, err := eng.RunConfigs(ctx, cfgs)
	if err != nil {
		return err
	}
	sw := sweep.NewSweep(results)
	if err := sw.WriteOutput(*out, *format); err != nil {
		return err
	}
	// A -trace run that reverted to the walker anywhere must say so: the
	// records are identical either way, but the run cost (and what the
	// operator believes happened) is not.
	for _, line := range sweep.FormatFallbacks(eng.TraceFallbacks()) {
		fmt.Fprintf(os.Stderr, "sweep: warning: replayed from walker — %s\n", line)
	}
	fmt.Fprintf(os.Stderr, "sweep: done — %d records, %d simulated, %d memo hits, %d results in store\n",
		len(sw.Records), store.Misses(), store.Hits(), store.Len())
	if berr := store.BackendErr(); berr != nil {
		fmt.Fprintln(os.Stderr, "sweep: warning: result store degraded:", berr)
	}
	return nil
}
