// Command perfbench is waycache's benchmark: it runs one workload in this
// process and prints its metrics, the last line as one JSON object. From
// the repository root:
//
//	bash perfbench/run.sh --workload sweep-walker --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	sweep-walker   a cold sweep engine over a seed-picked slice of the
//	               paper's design space, from live walkers
//	sweep-replay   the same slice replayed from content-addressed captures
//	service-mixed  the waycached HTTP server on loopback, two closed-loop
//	               clients mixing span jobs and corpus queries
//
// A run has two phases in two processes, so the timed process starts with
// a clean heap: --phase prep writes the workload's generated inputs into
// --dir, and --phase run measures. run.sh does both. With --trace 0 the
// run reports the end-to-end metrics, with --trace 1 the per-layer ones,
// and keeps its spans as JSON lines in --spans. --seconds is part of the
// benchmark's calling convention: BENCHMARK.json at the repository root
// fixes it (run_seconds) and lists every metric; DESIGN.md here says why
// each workload and metric exists.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// opts are one run's settings.
type opts struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	dir      string
	spans    string
}

func main() {
	var o opts
	phase := flag.String("phase", "run", "prep (write inputs), run (measure) or golden (print golden.txt)")
	flag.StringVar(&o.workload, "workload", "", "sweep-walker, sweep-replay or service-mixed")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: picks the inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase")
	trace := flag.String("trace", "0", "0 reports end-to-end metrics, 1 per-layer metrics from a traced run")
	flag.StringVar(&o.dir, "dir", "", "directory of the run's generated inputs")
	flag.StringVar(&o.spans, "spans", "", "directory the traced run writes its spans to")
	flag.Parse()
	o.traced = *trace == "1"
	var err error
	if *trace != "0" && !o.traced {
		err = fmt.Errorf("--trace is %q, want 0 or 1", *trace)
	} else {
		err = run(*phase, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(phase string, o opts) error {
	if phase == "golden" {
		return writeGolden()
	}
	if o.dir == "" {
		return fmt.Errorf("--dir is required")
	}
	if n := runtime.GOMAXPROCS(0); n > runtime.NumCPU() {
		return fmt.Errorf("GOMAXPROCS %d exceeds the %d CPUs", n, runtime.NumCPU())
	}
	switch phase {
	case "prep":
		// Every workload gets the suite's captures: sweep-replay runs from
		// them, and the traced runs of the others time the trace layer on
		// them. The sweep slice itself is computed from the seed.
		switch o.workload {
		case "sweep-walker", "sweep-replay":
			return prepCaptures(o.dir)
		case "service-mixed":
			if err := prepCaptures(o.dir); err != nil {
				return err
			}
			return prepService(o.dir, o.seed)
		}
	case "run":
		var r *report
		var err error
		switch o.workload {
		case "sweep-walker":
			r, err = runSweep(o, false)
		case "sweep-replay":
			r, err = runSweep(o, true)
		case "service-mixed":
			r, err = runService(o)
		default:
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		if err != nil {
			return err
		}
		return r.print(os.Stdout)
	default:
		return fmt.Errorf("unknown phase %q", phase)
	}
	return fmt.Errorf("unknown workload %q", o.workload)
}

// spanPath is where a traced run writes its spans.
func spanPath(o opts) string {
	return filepath.Join(o.spans, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
}
