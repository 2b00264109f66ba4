// Command traceconv imports external trace formats into canonical .wct
// captures and manages the content-addressed trace store.
//
// Importing converts ChampSim binary, DynamoRIO drcachesim CSV, or
// Valgrind lackey --trace-mem text into the versioned .wct format
// (byte-level spec and reconciliation rules in docs/TRACE_FORMAT.md).
// Conversion is deterministic, so the output has one content hash
// everywhere; with -store the result lands in a content-addressed store
// and the printed trace://<hash> reference can be used directly as a
// benchmark's trace in sweeps and job submissions.
//
// Usage:
//
//	traceconv -format champsim -in trace.champsim -bench gcc -o gcc.wct
//	traceconv -format lackey -in lackey.out -bench gcc -store /var/traces
//	cat dr.csv | traceconv -format drcachesim -in - -bench mesa -o mesa.wct
//	traceconv -export -format lackey -bench gcc -n 50000 -o gcc.lackey
//	traceconv -store /var/traces -ls
//	traceconv -store /var/traces -gc 24h
//
// -export runs the loop backwards: it renders a suite benchmark's walker
// stream in an external format, which is how test fixtures and benchmark
// inputs are produced without third-party tracers.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"waycache/internal/trace"
	"waycache/internal/traceconv"
	"waycache/internal/tracestore"
	"waycache/internal/workload"
)

func main() {
	format := flag.String("format", "", "external format: "+strings.Join(traceconv.Names(), ", "))
	in := flag.String("in", "", "input file (\"-\" for stdin)")
	out := flag.String("o", "", "output .wct path (default <bench>.wct; with -export, the external-format output)")
	bench := flag.String("bench", "", "benchmark name recorded in the header (default: input basename)")
	n := flag.Int64("n", 0, "max instructions to convert or export (0 = all; -export requires > 0)")
	lossy := flag.Bool("lossy", false, "drop malformed records (reported) instead of failing on the first")
	storeDir := flag.String("store", "", "content-addressed trace store directory (imports are added; enables -ls/-gc)")
	export := flag.Bool("export", false, "reverse mode: render a suite benchmark walker in -format")
	ls := flag.Bool("ls", false, "list the hashes in -store")
	gc := flag.Duration("gc", 0, "collect unreferenced store objects older than this age")
	flag.Parse()

	if err := run(*format, *in, *out, *bench, *n, *lossy, *storeDir, *export, *ls, *gc); err != nil {
		fmt.Fprintln(os.Stderr, "traceconv:", err)
		os.Exit(1)
	}
}

func run(format, in, out, bench string, n int64, lossy bool, storeDir string, export, ls bool, gc time.Duration) error {
	switch {
	case ls:
		return runList(storeDir)
	case gc > 0:
		return runGC(storeDir, gc)
	case export:
		return runExport(format, bench, out, n)
	default:
		return runImport(format, in, out, bench, n, lossy, storeDir)
	}
}

func runImport(format, in, out, bench string, n int64, lossy bool, storeDir string) error {
	if format == "" {
		return fmt.Errorf("-format is required (have %s)", strings.Join(traceconv.Names(), ", "))
	}
	imp, err := traceconv.ByName(format)
	if err != nil {
		return err
	}
	if in == "" {
		return fmt.Errorf("-in is required (\"-\" reads stdin)")
	}
	var src io.Reader = os.Stdin
	if in != "-" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
		if bench == "" {
			base := filepath.Base(in)
			bench = strings.TrimSuffix(base, filepath.Ext(base))
		}
	}
	if bench == "" {
		return fmt.Errorf("-bench is required when reading stdin")
	}
	if out == "" {
		out = bench + trace.FileExt
	}

	dst, err := os.Create(out)
	if err != nil {
		return err
	}
	sum := sha256.New()
	start := time.Now()
	st, err := traceconv.Convert(imp, src, io.MultiWriter(dst, sum), traceconv.Options{
		Benchmark: bench, MaxInsts: n, Lossy: lossy,
	})
	if cerr := dst.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(out)
		return err
	}
	elapsed := time.Since(start)

	fi, err := os.Stat(out)
	if err != nil {
		return err
	}
	hash := hex.EncodeToString(sum.Sum(nil))
	fmt.Printf("imported %s: %d records -> %d instructions -> %s (%d bytes)\n",
		format, st.Records, st.Insts, out, fi.Size())
	if st.Dropped > 0 {
		fmt.Printf("dropped  %d records: %s\n", st.Dropped, st.DropSummary())
	}
	if secs := elapsed.Seconds(); secs > 0 {
		fmt.Printf("took     %v\n", elapsed.Round(time.Millisecond))
	}
	fmt.Printf("sha256   %s\n", hash)

	if storeDir != "" {
		s, err := tracestore.Open(storeDir)
		if err != nil {
			return err
		}
		stored, _, err := s.PutFile(out)
		if err != nil {
			return err
		}
		if stored != hash {
			return fmt.Errorf("store hashed %s but the written file hashed %s", stored, hash)
		}
		fmt.Printf("stored   %s\n", trace.FormatRef(hash))
	}
	return nil
}

func runExport(format, bench, out string, n int64) error {
	if n <= 0 {
		return fmt.Errorf("-export needs a positive -n")
	}
	exp, err := traceconv.ExporterFor(format)
	if err != nil {
		return err
	}
	p, err := workload.ByName(bench)
	if err != nil {
		return err
	}
	if out == "" {
		out = bench + "." + format
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	wrote, err := exp(f, p.NewWalker(), n)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(out)
		return err
	}
	fi, err := os.Stat(out)
	if err != nil {
		return err
	}
	fmt.Printf("exported %s: %d instructions -> %s (%d bytes)\n", format, wrote, out, fi.Size())
	return nil
}

func runList(storeDir string) error {
	if storeDir == "" {
		return fmt.Errorf("-ls needs -store")
	}
	s, err := tracestore.Open(storeDir)
	if err != nil {
		return err
	}
	hashes, err := s.Hashes()
	if err != nil {
		return err
	}
	for _, h := range hashes {
		p, err := s.Path(h)
		if err != nil {
			continue
		}
		fi, err := os.Stat(p)
		if err != nil {
			continue
		}
		fmt.Printf("%s  %10d bytes  refs=%d\n", trace.FormatRef(h), fi.Size(), s.RefCount(h))
	}
	return nil
}

func runGC(storeDir string, minAge time.Duration) error {
	if storeDir == "" {
		return fmt.Errorf("-gc needs -store")
	}
	s, err := tracestore.Open(storeDir)
	if err != nil {
		return err
	}
	removed, err := s.GC(minAge)
	if err != nil {
		return err
	}
	for _, h := range removed {
		fmt.Printf("removed %s\n", trace.FormatRef(h))
	}
	fmt.Printf("gc: removed %d object(s)\n", len(removed))
	return nil
}
