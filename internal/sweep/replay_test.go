package sweep

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"waycache/internal/access"
	"waycache/internal/core"
	"waycache/internal/trace"
	"waycache/internal/workload"
)

// runOne simulates (or recalls) a single configuration through eng.
func runOne(eng *Engine, cfg core.Config) (*core.Result, error) {
	res, err := eng.RunConfigs(context.Background(), []core.Config{cfg})
	return res[0], err
}

func captureBench(t *testing.T, dir, bench string, n int64) string {
	t.Helper()
	p, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, bench+trace.FileExt)
	if err := p.CaptureFile(path, n); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTraceDirSweepByteIdentical is the acceptance property: a sweep run
// from captured traces emits byte-identical JSON and CSV to the same sweep
// run from the live walkers.
func TestTraceDirSweepByteIdentical(t *testing.T) {
	const insts = 20_000
	dir := t.TempDir()
	captureBench(t, dir, "gcc", insts)
	captureBench(t, dir, "swim", insts)

	g := Grid{
		Benchmarks: []string{"gcc", "swim"},
		DPolicies:  []access.DPolicy{access.DParallel, access.DSelDMWayPred},
		Insts:      insts,
	}
	ctx := context.Background()

	walkEng := New(Options{Workers: 4})
	walkSweep, err := walkEng.Run(ctx, g)
	if err != nil {
		t.Fatal(err)
	}

	traceEng := New(Options{Workers: 4, TraceDir: dir})
	results, err := traceEng.RunConfigs(ctx, g.Configs())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Config.Trace == "" {
			t.Fatalf("config %d did not resolve to a captured trace", i)
		}
	}
	traceSweep := NewSweep(results)

	var wantJSON, gotJSON, wantCSV, gotCSV bytes.Buffer
	if err := walkSweep.WriteJSON(&wantJSON); err != nil {
		t.Fatal(err)
	}
	if err := traceSweep.WriteJSON(&gotJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON.Bytes(), gotJSON.Bytes()) {
		t.Fatal("trace-replayed sweep JSON differs from walker sweep JSON")
	}
	if err := walkSweep.WriteCSV(&wantCSV); err != nil {
		t.Fatal(err)
	}
	if err := traceSweep.WriteCSV(&gotCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantCSV.Bytes(), gotCSV.Bytes()) {
		t.Fatal("trace-replayed sweep CSV differs from walker sweep CSV")
	}
}

// TestTraceDirFallsBackToWalker: benchmarks without a usable capture must
// simulate from the generator — and say so in the fallback report, so the
// reversion is never silent.
func TestTraceDirFallsBackToWalker(t *testing.T) {
	const insts = 5_000
	dir := t.TempDir()
	captureBench(t, dir, "gcc", insts)

	eng := New(Options{Workers: 2, TraceDir: dir})
	ctx := context.Background()
	cfgs := []core.Config{
		{Benchmark: "gcc", Insts: insts},  // has a capture
		{Benchmark: "swim", Insts: insts}, // no capture on disk
	}
	results, err := eng.RunConfigs(ctx, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Config.Trace == "" {
		t.Fatal("gcc did not replay its capture")
	}
	if results[1].Config.Trace != "" {
		t.Fatal("swim resolved a trace that does not exist")
	}
	if results[1].Benchmark != "swim" || results[1].Cycles() == 0 {
		t.Fatal("walker fallback did not simulate")
	}

	fb := eng.TraceFallbacks()
	if len(fb) != 1 {
		t.Fatalf("TraceFallbacks = %v, want exactly swim", fb)
	}
	if fb["swim"] == "" {
		t.Fatalf("swim fallback has no reason: %v", fb)
	}
	if _, leaked := fb["gcc"]; leaked {
		t.Fatalf("gcc replayed but appears in the fallback report: %v", fb)
	}
	lines := FormatFallbacks(fb)
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "swim: ") {
		t.Fatalf("FormatFallbacks = %q", lines)
	}
}

// TestTraceFallbackReasons: each rejection class must report a reason that
// names the actual defect.
func TestTraceFallbackReasons(t *testing.T) {
	const insts = int64(2_000)

	t.Run("short capture", func(t *testing.T) {
		dir := t.TempDir()
		captureBench(t, dir, "gcc", 1_000)
		eng := New(Options{TraceDir: dir})
		if _, err := runOne(eng, core.Config{Benchmark: "gcc", Insts: 50_000}); err != nil {
			t.Fatal(err)
		}
		if why := eng.TraceFallbacks()["gcc"]; !strings.Contains(why, "1000") || !strings.Contains(why, "50000") {
			t.Errorf("short-capture reason %q does not name the counts", why)
		}
	})

	t.Run("stale seed", func(t *testing.T) {
		dir := t.TempDir()
		p, err := workload.ByName("gcc")
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "gcc"+trace.FileExt)
		h := trace.Header{Benchmark: "gcc", Seed: p.Seed + 1, Insts: insts}
		if err := trace.CaptureFile(path, h, p.NewWalker()); err != nil {
			t.Fatal(err)
		}
		eng := New(Options{TraceDir: dir})
		if _, err := runOne(eng, core.Config{Benchmark: "gcc", Insts: insts}); err != nil {
			t.Fatal(err)
		}
		if why := eng.TraceFallbacks()["gcc"]; !strings.Contains(why, "stale") {
			t.Errorf("stale-seed reason %q does not say stale", why)
		}
	})

	t.Run("corrupt file", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "gcc"+trace.FileExt)
		if err := os.WriteFile(path, []byte("not a trace file"), 0o644); err != nil {
			t.Fatal(err)
		}
		eng := New(Options{TraceDir: dir})
		if _, err := runOne(eng, core.Config{Benchmark: "gcc", Insts: insts}); err != nil {
			t.Fatal(err)
		}
		if why := eng.TraceFallbacks()["gcc"]; why == "" {
			t.Error("corrupt capture produced no fallback reason")
		}
	})

	t.Run("no trace dir", func(t *testing.T) {
		eng := New(Options{})
		if _, err := runOne(eng, core.Config{Benchmark: "gcc", Insts: insts}); err != nil {
			t.Fatal(err)
		}
		if fb := eng.TraceFallbacks(); fb != nil {
			t.Errorf("engine without TraceDir reports fallbacks: %v", fb)
		}
	})

	t.Run("clean replay", func(t *testing.T) {
		dir := t.TempDir()
		captureBench(t, dir, "gcc", insts)
		eng := New(Options{TraceDir: dir})
		if _, err := runOne(eng, core.Config{Benchmark: "gcc", Insts: insts}); err != nil {
			t.Fatal(err)
		}
		if fb := eng.TraceFallbacks(); len(fb) != 0 {
			t.Errorf("clean replay reports fallbacks: %v", fb)
		}
	})
}

func TestTraceDirRejectsShortCapture(t *testing.T) {
	dir := t.TempDir()
	captureBench(t, dir, "gcc", 1_000)
	eng := New(Options{TraceDir: dir})
	res, err := runOne(eng, core.Config{Benchmark: "gcc", Insts: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.Trace != "" {
		t.Fatal("a 1k-instruction capture was used for a 50k-instruction run")
	}
}

func TestTraceDirRejectsStaleSeed(t *testing.T) {
	const insts = int64(2_000)
	dir := t.TempDir()
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	// A capture whose header seed no longer matches the profile models a
	// stale file from before a generator change: it must be ignored.
	path := filepath.Join(dir, "gcc"+trace.FileExt)
	h := trace.Header{Benchmark: "gcc", Seed: p.Seed + 1, Insts: insts}
	if err := trace.CaptureFile(path, h, p.NewWalker()); err != nil {
		t.Fatal(err)
	}
	eng := New(Options{TraceDir: dir})
	res, err := runOne(eng, core.Config{Benchmark: "gcc", Insts: insts})
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.Trace != "" {
		t.Fatal("stale-seed capture was replayed")
	}
}

func TestTraceDirIgnoresCorruptFile(t *testing.T) {
	const insts = int64(2_000)
	dir := t.TempDir()
	path := filepath.Join(dir, "gcc"+trace.FileExt)
	if err := os.WriteFile(path, []byte("not a trace file"), 0o644); err != nil {
		t.Fatal(err)
	}
	eng := New(Options{TraceDir: dir})
	res, err := runOne(eng, core.Config{Benchmark: "gcc", Insts: insts})
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.Trace != "" {
		t.Fatal("corrupt file was treated as a trace")
	}
}
