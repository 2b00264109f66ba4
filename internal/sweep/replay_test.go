package sweep

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

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

// TestTraceFallbackReasons: each reference an engine cannot use must run
// the benchmark's own stream and report a reason that names the defect
// through Engine.TraceFallbacks; usable references, and runs that carry
// none, report nothing.
func TestTraceFallbackReasons(t *testing.T) {
	const insts = int64(2_000)

	t.Run("short capture", func(t *testing.T) {
		store, ref := storeWithCapture(t, "gcc", 1_000)
		eng := New(Options{TraceStore: store})
		res, err := runOne(eng, core.Config{Benchmark: "gcc", Trace: ref, Insts: 50_000})
		if err != nil {
			t.Fatal(err)
		}
		if res.Config.Trace != "" {
			t.Error("a 1k-instruction capture was used for a 50k-instruction run")
		}
		if why := eng.TraceFallbacks()["gcc"]; !strings.Contains(why, "1000") || !strings.Contains(why, "50000") {
			t.Errorf("short-capture reason %q does not name the counts", why)
		}
	})

	t.Run("corrupt file", func(t *testing.T) {
		store, ref := storeWithCapture(t, "gcc", insts)
		hash, _ := trace.ParseRef(ref)
		path, err := store.Path(hash)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte("not a trace file"), 0o644); err != nil {
			t.Fatal(err)
		}
		eng := New(Options{TraceStore: store})
		if _, err := runOne(eng, core.Config{Benchmark: "gcc", Trace: ref, Insts: insts}); err != nil {
			t.Fatal(err)
		}
		if why := eng.TraceFallbacks()["gcc"]; why == "" {
			t.Error("corrupt capture produced no fallback reason")
		}
	})

	t.Run("no trace store", func(t *testing.T) {
		eng := New(Options{})
		if _, err := runOne(eng, core.Config{Benchmark: "gcc", Insts: insts}); err != nil {
			t.Fatal(err)
		}
		if fb := eng.TraceFallbacks(); fb != nil {
			t.Errorf("run without a reference reports fallbacks: %v", fb)
		}
	})

	t.Run("clean replay", func(t *testing.T) {
		store, ref := storeWithCapture(t, "gcc", insts)
		eng := New(Options{TraceStore: store})
		if _, err := runOne(eng, core.Config{Benchmark: "gcc", Trace: ref, Insts: insts}); err != nil {
			t.Fatal(err)
		}
		if fb := eng.TraceFallbacks(); len(fb) != 0 {
			t.Errorf("clean replay reports fallbacks: %v", fb)
		}
	})
}
