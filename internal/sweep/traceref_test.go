package sweep

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"waycache/internal/core"
	"waycache/internal/trace"
	"waycache/internal/tracestore"
	"waycache/internal/workload"
)

func coreCfg(bench, tr string) core.Config {
	return core.Config{Benchmark: bench, Trace: tr, Insts: 1000}
}

// storeWithCapture captures n instructions of bench into a fresh content
// store and returns the store and the capture's trace:// reference.
func storeWithCapture(t *testing.T, bench string, n int64) (*tracestore.Store, string) {
	t.Helper()
	p, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), bench+trace.FileExt)
	if err := p.CaptureFile(path, n); err != nil {
		t.Fatal(err)
	}
	store, err := tracestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hash, _, err := store.PutFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return store, trace.FormatRef(hash)
}

// TestTraceRefSweepMatchesWalker is the sweep-level determinism property
// behind the distributed trace leg: a grid whose benchmark replays via a
// trace:// reference writes byte-identical records to the walker sweep —
// so a fleet resolving hashes and a laptop walking generators agree.
func TestTraceRefSweepMatchesWalker(t *testing.T) {
	const bench, insts = "gcc", 20_000
	store, ref := storeWithCapture(t, bench, insts)

	walkGrid := Grid{Benchmarks: []string{bench}, DWays: []int{2, 4}, Insts: insts}
	walk, err := New(Options{Workers: 2}).Run(context.Background(), walkGrid)
	if err != nil {
		t.Fatal(err)
	}

	refGrid := walkGrid
	refGrid.TraceRefs = map[string]string{bench: ref}
	refGrid, err = refGrid.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Options{Workers: 2, TraceStore: store})
	replay, err := eng.Run(context.Background(), refGrid)
	if err != nil {
		t.Fatal(err)
	}
	if fb := eng.TraceFallbacks(); len(fb) != 0 {
		t.Fatalf("replay run fell back to the walker: %v", fb)
	}

	var a, b bytes.Buffer
	if err := walk.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := replay.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("trace:// sweep output differs from walker sweep output")
	}
}

func TestTraceRefFallbackReasons(t *testing.T) {
	missing := trace.FormatRef(strings.Repeat("ab", 32))

	t.Run("no-store", func(t *testing.T) {
		// Without a store a reference does not fall back: the run fails
		// in core, naming the missing store.
		eng := New(Options{})
		_, err := eng.RunConfigs(context.Background(), []core.Config{coreCfg("gcc", missing)})
		if err == nil || !strings.Contains(err.Error(), "needs a trace store") {
			t.Fatalf("run of a reference without a store: err %v, want one naming the missing store", err)
		}
		if fb := eng.TraceFallbacks(); len(fb) != 0 {
			t.Fatalf("a failed reference was reported as a fallback: %v", fb)
		}
	})

	t.Run("not-in-store", func(t *testing.T) {
		store, err := tracestore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		r := newTraceResolver(store)
		cfg := r.resolve(coreCfg("gcc", missing))
		if cfg.Trace != "" {
			t.Fatal("suite benchmark did not fall back to the walker")
		}
		why := r.fallbackReport()["gcc"]
		if !strings.Contains(why, "not in the trace store") || !strings.Contains(why, "abababababab") {
			t.Fatalf("reason %q must say the hash is absent, naming it", why)
		}
	})

	t.Run("fetch-failed", func(t *testing.T) {
		store, ref := storeWithCapture(t, "gcc", 1000)
		hash, _ := trace.ParseRef(ref)
		path, err := store.Path(hash)
		if err != nil {
			t.Fatal(err)
		}
		// Corrupt the stored object so it no longer opens.
		if err := os.WriteFile(path, []byte("xx"), 0o644); err != nil {
			t.Fatal(err)
		}
		r := newTraceResolver(store)
		cfg := r.resolve(coreCfg("gcc", ref))
		if cfg.Trace != "" {
			t.Fatal("suite benchmark did not fall back to the walker")
		}
		why := r.fallbackReport()["gcc"]
		if !strings.Contains(why, "fetch failed") {
			t.Fatalf("reason %q must distinguish an unreadable object (fetch failed)", why)
		}
	})

	t.Run("external-benchmark-keeps-failing-ref", func(t *testing.T) {
		store, err := tracestore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		r := newTraceResolver(store)
		cfg := r.resolve(coreCfg("spec-gcc-ref", missing))
		if cfg.Trace != missing {
			t.Fatalf("external workload must keep its reference (no walker exists), got %+v", cfg)
		}
		// The run itself then fails with the resolution error.
		eng := New(Options{TraceStore: store})
		if _, err := runOne(eng, cfg); err == nil {
			t.Fatal("Result succeeded for a reference that resolves nowhere")
		}
	})

	t.Run("short-capture", func(t *testing.T) {
		store, ref := storeWithCapture(t, "gcc", 100)
		r := newTraceResolver(store)
		cfg := coreCfg("gcc", ref)
		cfg.Insts = 5000
		out := r.resolve(cfg)
		if out.Trace != "" {
			t.Fatal("too-short capture was not rejected")
		}
		if why := r.fallbackReport()["gcc"]; !strings.Contains(why, "run needs 5000") {
			t.Fatalf("reason %q must explain the shortfall", why)
		}
	})
}

func TestGridNormalize(t *testing.T) {
	ref := trace.FormatRef(strings.Repeat("cd", 32))

	g, err := Grid{Benchmarks: []string{"all"}}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Benchmarks) != len(workload.Names()) {
		t.Fatalf("all expanded to %d benchmarks, want the %d-suite", len(g.Benchmarks), len(workload.Names()))
	}

	if _, err := (Grid{Benchmarks: []string{"no-such-bench"}}).Normalize(); err == nil {
		t.Fatal("unknown benchmark without a trace ref must be rejected")
	}

	g, err = Grid{
		Benchmarks: []string{"gcc", "spec-mcf"},
		TraceRefs:  map[string]string{"spec-mcf": ref},
	}.Normalize()
	if err != nil {
		t.Fatalf("external benchmark with a trace ref must normalize: %v", err)
	}
	cfgs := g.Configs()
	foundExt := false
	for _, c := range cfgs {
		if c.Benchmark == "spec-mcf" {
			foundExt = true
			if c.Trace != ref {
				t.Fatalf("external benchmark config carries trace %q, want %q", c.Trace, ref)
			}
		} else if c.Trace != "" {
			t.Fatalf("unmapped benchmark %q gained trace %q", c.Benchmark, c.Trace)
		}
	}
	if !foundExt {
		t.Fatal("external benchmark missing from expanded configs")
	}

	if _, err := (Grid{Benchmarks: []string{"gcc"}, TraceRefs: map[string]string{"gcc": "not-a-ref"}}).Normalize(); err == nil {
		t.Fatal("malformed trace reference must be rejected")
	}
	if _, err := (Grid{Benchmarks: []string{"gcc"}, TraceRefs: map[string]string{"swim": ref}}).Normalize(); err == nil {
		t.Fatal("trace ref for an unlisted benchmark must be rejected")
	}
}

func TestParseTraceRefs(t *testing.T) {
	ref := trace.FormatRef(strings.Repeat("ef", 32))
	m, err := ParseTraceRefs("gcc=" + ref + ", swim=" + ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || m["gcc"] != ref || m["swim"] != ref {
		t.Fatalf("parsed %v", m)
	}
	if m, err := ParseTraceRefs(""); err != nil || m != nil {
		t.Fatalf("empty spec = (%v, %v), want (nil, nil)", m, err)
	}
	for _, bad := range []string{"gcc", "gcc=not-a-ref", "=" + ref} {
		if _, err := ParseTraceRefs(bad); err == nil {
			t.Fatalf("ParseTraceRefs(%q) accepted", bad)
		}
	}
}
