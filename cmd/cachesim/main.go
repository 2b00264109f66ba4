// Command cachesim runs a single simulator configuration and prints its
// timing, cache and energy statistics.
//
// Usage:
//
//	cachesim -bench gcc -dpolicy seldm+waypred -ipolicy waypred -insts 1000000
//	cachesim -bench swim -dpolicy sequential -dlatency 2
//	cachesim -bench fpppp -dways 8
//	cachesim -trace traces/gcc.wct -dpolicy seldm+waypred
//	cachesim -trace trace://<sha256> -tracestore /var/waycache/traces
//	cachesim -bench gcc -dpolicy seldm+waypred -store results/
//
// With -store naming a directory, the run is memoized in the on-disk
// result store shared with sweep/experiments/waycached: a configuration
// simulated by any of them (including a previous cachesim call) is
// recalled from disk instead of re-simulated, and fresh runs extend the
// store.
//
// With -trace the simulator replays a captured trace file (written by
// tracegen -capture) instead of walking the named benchmark's generator;
// the benchmark name is taken from the trace header unless -bench is given
// explicitly, in which case the two must agree. -trace also accepts a
// content-addressed trace://<sha256> reference when -tracestore names a
// local store (see cmd/traceconv); the bytes are verified against the
// hash on decode.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"waycache/internal/access"
	"waycache/internal/core"
	"waycache/internal/sweep"
	"waycache/internal/tracestore"
)

// policyFlag lists policy names for a flag's help text.
func policyFlag[P fmt.Stringer](pols []P) string {
	names := make([]string, len(pols))
	for i, p := range pols {
		names[i] = p.String()
	}
	return strings.Join(names, "|")
}

func main() {
	bench := flag.String("bench", "gcc", "benchmark name (see workload suite)")
	tracePath := flag.String("trace", "", "replay a captured trace file instead of walking -bench's generator")
	dpol := flag.String("dpolicy", "parallel", "d-cache policy: "+policyFlag(sweep.AllDPolicies()))
	ipol := flag.String("ipolicy", "parallel", "i-cache policy: "+policyFlag(sweep.AllIPolicies()))
	insts := flag.Int64("insts", 1_000_000, "instructions to simulate")
	dsize := flag.Int("dsize", 16<<10, "d-cache size in bytes")
	dways := flag.Int("dways", 4, "d-cache associativity")
	iways := flag.Int("iways", 4, "i-cache associativity")
	dlat := flag.Int("dlatency", 1, "base d-cache hit latency (cycles)")
	baseline := flag.Bool("baseline", false, "also run the parallel baseline and print relative metrics")
	storeDir := flag.String("store", "", "directory of the on-disk result store; known configurations are recalled, fresh ones stored")
	traceStoreDir := flag.String("tracestore", "", "content-addressed trace store directory; lets -trace name a trace://<sha256> reference")
	flag.Parse()

	dp, ok := access.DPolicyNamed(*dpol)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown -dpolicy %q\n", *dpol)
		os.Exit(2)
	}
	ip, ok := access.IPolicyNamed(*ipol)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown -ipolicy %q\n", *ipol)
		os.Exit(2)
	}

	cfg := core.Config{
		Benchmark: *bench, Trace: *tracePath, Insts: *insts,
		DPolicy: dp, IPolicy: ip,
		DSize: *dsize, DWays: *dways, IWays: *iways, DLatency: *dlat,
	}
	if *traceStoreDir != "" {
		ts, err := tracestore.Open(*traceStoreDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg.TraceStore = ts
	}
	if *tracePath != "" {
		// With -trace, the benchmark name comes from the trace header;
		// only an explicit -bench pins (and cross-checks) it.
		benchSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "bench" {
				benchSet = true
			}
		})
		if !benchSet {
			cfg.Benchmark = ""
		}
	}
	// run simulates through the store when -store is set (recalling known
	// configurations from disk), or directly otherwise.
	run := core.Run
	if *storeDir != "" {
		store, db, err := sweep.OpenDiskStore(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			if cerr := db.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "cachesim: closing store:", cerr)
			}
			if berr := store.BackendErr(); berr != nil {
				fmt.Fprintln(os.Stderr, "cachesim: warning: result store degraded:", berr)
			}
		}()
		run = store.Result
		defer func() {
			fmt.Fprintf(os.Stderr, "[store: %d simulated, %d recalled, %d results in store]\n",
				store.Misses(), store.Hits(), store.Len())
		}()
	}

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	ps := res.Pipeline
	fmt.Printf("benchmark        %s\n", res.Benchmark)
	fmt.Printf("d-policy         %s   i-policy %s\n", dp, ip)
	fmt.Printf("instructions     %d\n", ps.Committed)
	fmt.Printf("cycles           %d (IPC %.2f)\n", ps.Cycles, ps.IPC())
	fmt.Printf("branches         %d (mispredict %.1f%%)\n", ps.Branches,
		100*float64(ps.BranchMispred)/float64(max64(1, ps.Branches)))
	fmt.Printf("d-cache          miss %.2f%%  loads %d stores %d\n",
		100*res.DMissRate(), res.DStats.Loads, res.DStats.Stores)
	fmt.Printf("d-way accuracy   %.1f%%\n", 100*res.WayPredAccuracy())
	fmt.Printf("i-cache          miss %.2f%%  fetches %d  way accuracy %.1f%%\n",
		100*res.IL1.MissRate(), res.IStats.Fetches, 100*res.IWayAccuracy())
	fmt.Printf("L1d energy       %.1f (normalized units)\n", res.DCacheEnergy())
	fmt.Printf("L1i energy       %.1f\n", res.ICacheEnergy())
	fmt.Printf("processor energy %.1f (L1 share %.1f%%)\n", res.ProcessorEnergy(), 100*res.Power.L1Share())

	if *baseline {
		bcfg := cfg
		bcfg.DPolicy, bcfg.IPolicy = access.DParallel, access.IParallel
		base, err := run(bcfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		c := core.Compare(base, res)
		fmt.Printf("\nrelative to parallel baseline:\n")
		fmt.Printf("  d-cache E-D    %.3f (%.1f%% savings)\n", c.RelDCacheED, 100*(1-c.RelDCacheED))
		fmt.Printf("  i-cache E-D    %.3f\n", c.RelICacheED)
		fmt.Printf("  processor E-D  %.3f\n", c.RelProcED)
		fmt.Printf("  perf loss      %.2f%%\n", 100*c.PerfLoss)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
