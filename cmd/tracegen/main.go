// Command tracegen inspects the synthetic workload generators and captures
// their dynamic instruction streams to trace files.
//
// By default it prints a benchmark's static shape and dynamic instruction
// mix, or (with -dump) a disassembly-style listing of the first
// instructions. With -capture it instead records the first -n instructions
// to a trace file (versioned varint-delta binary; byte-level spec in
// docs/TRACE_FORMAT.md) that cachesim -trace and core.Config.Trace replay
// in place of the live generator — the replayed stream is identical to the
// walker's, so results match byte for byte. With -store the captures are
// filed in a content-addressed trace store instead, and tracegen prints
// their -traces mapping (gcc=trace://<sha256>,...) on stdout, which sweep,
// sweepctl and waycached jobs replay by reference.
//
// Usage:
//
//	tracegen -bench swim -n 500000                      # dynamic mix
//	tracegen -bench li -dump 40                         # listing
//	tracegen -bench gcc -n 1000000 -capture -o traces/gcc.wct
//	tracegen -capture -all -n 1000000 -o traces         # whole suite
//	tracegen -capture -all -n 1000000 -store traces/    # prints -traces
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"waycache/internal/isa"
	"waycache/internal/trace"
	"waycache/internal/tracestore"
	"waycache/internal/workload"
)

func main() {
	bench := flag.String("bench", "gcc", "benchmark name")
	n := flag.Int64("n", 500_000, "instructions to sample for the mix, or to capture")
	dump := flag.Int("dump", 0, "print the first N instructions")
	capture := flag.Bool("capture", false, "capture the first -n instructions to a trace file")
	all := flag.Bool("all", false, "with -capture: capture every suite benchmark (-o names a directory)")
	out := flag.String("o", "", "capture output path (default <bench>.wct, or a directory with -all)")
	storeDir := flag.String("store", "", "with -capture: file the captures in this content-addressed trace store and print their -traces mapping")
	flag.Parse()

	if *capture {
		if err := captureTraces(*bench, *all, *out, *storeDir, *n); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	p, err := workload.ByName(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	prog := p.MustBuild()
	fmt.Printf("benchmark  %s (seed %#x)\n", p.Name, p.Seed)
	fmt.Printf("functions  %d\n", len(prog.Funcs))
	fmt.Printf("code size  %d bytes\n", prog.CodeBytes())
	fmt.Printf("streams    %d\n", len(prog.Streams))
	for i, s := range prog.Streams {
		fmt.Printf("  [%d] %-12s kind=%d base=%#x len=%d stride=%d adv=%d\n",
			i, s.Name, s.Kind, s.Base, s.Length, s.Stride, s.AdvanceEvery)
	}

	w := p.NewWalker()
	var in trace.Inst
	if *dump > 0 {
		fmt.Println("\nfirst instructions:")
		for i := 0; i < *dump && w.Next(&in); i++ {
			switch {
			case in.Kind.IsMem():
				fmt.Printf("  %#08x  %-5s addr=%#x (base=%#x off=%d)\n",
					in.PC, in.Kind, in.Addr, in.BaseValue, in.Offset)
			case in.Kind.IsControl():
				fmt.Printf("  %#08x  %-5s taken=%v target=%#x\n", in.PC, in.Kind, in.Taken, in.Target)
			default:
				fmt.Printf("  %#08x  %-5s r%d <- r%d, r%d\n", in.PC, in.Kind, in.Dst, in.Src1, in.Src2)
			}
		}
		return
	}

	counts := map[isa.Kind]int64{}
	var total int64
	for total = 0; total < *n && w.Next(&in); total++ {
		counts[in.Kind]++
	}
	fmt.Printf("\ndynamic mix over %d instructions:\n", total)
	for k := isa.KindNop; k < isa.Kind(isa.NumKinds); k++ {
		if counts[k] == 0 {
			continue
		}
		fmt.Printf("  %-6s %6.2f%%\n", k, 100*float64(counts[k])/float64(total))
	}
}

// captureTraces records n instructions of one benchmark (or, with all set,
// of every suite benchmark) into replayable trace files, or files them in
// the content-addressed store at storeDir and prints their -traces
// mapping.
func captureTraces(bench string, all bool, out, storeDir string, n int64) error {
	if n <= 0 {
		return fmt.Errorf("tracegen: -capture needs a positive -n, got %d", n)
	}
	profiles := workload.Suite()
	if !all {
		p, err := workload.ByName(bench)
		if err != nil {
			return err
		}
		profiles = []workload.Profile{p}
	}
	dir, report := "", os.Stdout // where the files go when there are several, and the log
	var store *tracestore.Store
	var refs []string
	var err error
	switch {
	case storeDir != "" && out != "":
		return fmt.Errorf("tracegen: -o and -store are mutually exclusive")
	case storeDir != "":
		if store, err = tracestore.Open(storeDir); err != nil {
			return err
		}
		if dir, err = os.MkdirTemp("", "tracegen-"); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		report = os.Stderr
	case all:
		if dir = out; dir == "" {
			dir = "."
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	for _, p := range profiles {
		path := out
		if dir != "" {
			path = filepath.Join(dir, p.Name+trace.FileExt)
		} else if path == "" {
			path = p.Name + trace.FileExt
		}
		if err := p.CaptureFile(path, n); err != nil {
			return err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		dest := path
		if store != nil {
			hash, _, err := store.PutFile(path)
			if err != nil {
				return err
			}
			dest = trace.FormatRef(hash)
			refs = append(refs, p.Name+"="+dest)
		}
		fmt.Fprintf(report, "captured %-8s %d instructions -> %s (%d bytes, %.2f B/inst)\n",
			p.Name, n, dest, fi.Size(), float64(fi.Size())/float64(n))
	}
	if store != nil {
		fmt.Println(strings.Join(refs, ","))
	}
	return nil
}
