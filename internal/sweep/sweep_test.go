package sweep

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"waycache/internal/access"
	"waycache/internal/core"
)

// testGrid is small enough for fast tests but has several dimensions and a
// shared implicit baseline.
func testGrid() Grid {
	return Grid{
		Benchmarks: []string{"gcc", "swim"},
		DPolicies:  []access.DPolicy{access.DParallel, access.DWayPredPC},
		DWays:      []int{2, 4},
		Insts:      20_000,
	}
}

func TestGridExpansion(t *testing.T) {
	g := testGrid()
	cfgs := g.Configs()
	if len(cfgs) != g.Size() || len(cfgs) != 8 {
		t.Fatalf("got %d configs, Size()=%d, want 8", len(cfgs), g.Size())
	}
	// Row-major: benchmark slowest, so the first half is all gcc.
	for i, cfg := range cfgs {
		want := "gcc"
		if i >= 4 {
			want = "swim"
		}
		if cfg.Benchmark != want {
			t.Errorf("cfgs[%d].Benchmark = %q, want %q", i, cfg.Benchmark, want)
		}
		if cfg.Insts != 20_000 {
			t.Errorf("cfgs[%d].Insts = %d, want 20000", i, cfg.Insts)
		}
	}
	// Fastest-varying listed dimension is DWays.
	if cfgs[0].DWays != 2 || cfgs[1].DWays != 4 {
		t.Errorf("DWays order = %d,%d, want 2,4", cfgs[0].DWays, cfgs[1].DWays)
	}
}

func TestGridEmptyDims(t *testing.T) {
	// The zero grid expands to exactly one all-defaults cell.
	var g Grid
	if g.Size() != 1 {
		t.Fatalf("zero grid Size() = %d, want 1", g.Size())
	}
	cfgs := g.Configs()
	if len(cfgs) != 1 {
		t.Fatalf("zero grid expands to %d configs, want 1", len(cfgs))
	}
	if cfgs[0] != (core.Config{}) {
		t.Errorf("zero grid cell = %+v, want zero config", cfgs[0])
	}

	// A single-cell grid pins exactly what it lists.
	one := Grid{Benchmarks: []string{"gcc"}, DWays: []int{8}}
	if one.Size() != 1 {
		t.Fatalf("single-cell Size() = %d, want 1", one.Size())
	}
	cfg := one.Configs()[0]
	if cfg.Benchmark != "gcc" || cfg.DWays != 8 {
		t.Errorf("single cell = %+v", cfg)
	}
}

func TestParsePolicies(t *testing.T) {
	dp, err := ParseDPolicies("parallel, seldm+waypred")
	if err != nil {
		t.Fatal(err)
	}
	if len(dp) != 2 || dp[0] != access.DParallel || dp[1] != access.DSelDMWayPred {
		t.Errorf("parsed %v", dp)
	}
	if dp, _ = ParseDPolicies("all"); len(dp) != 8 {
		t.Errorf("all d-policies = %d, want 8", len(dp))
	}
	if _, err = ParseDPolicies("bogus"); err == nil {
		t.Error("bogus d-policy accepted")
	}
	ip, err := ParseIPolicies("waypred")
	if err != nil || len(ip) != 1 || ip[0] != access.IWayPred {
		t.Errorf("parsed %v, %v", ip, err)
	}
	if _, err = ParseIPolicies("bogus"); err == nil {
		t.Error("bogus i-policy accepted")
	}
}

// TestWorkerCountIndependence is the core determinism guarantee: the same
// grid swept with 1 worker and with 8 produces byte-identical JSON and CSV.
func TestWorkerCountIndependence(t *testing.T) {
	g := testGrid()
	var outs [2]struct{ jsonB, csvB bytes.Buffer }
	for i, workers := range []int{1, 8} {
		eng := New(Options{Workers: workers})
		sw, err := eng.Run(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.WriteJSON(&outs[i].jsonB); err != nil {
			t.Fatal(err)
		}
		if err := sw.WriteCSV(&outs[i].csvB); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(outs[0].jsonB.Bytes(), outs[1].jsonB.Bytes()) {
		t.Error("JSON differs between workers=1 and workers=8")
	}
	if !bytes.Equal(outs[0].csvB.Bytes(), outs[1].csvB.Bytes()) {
		t.Error("CSV differs between workers=1 and workers=8")
	}
	if outs[0].jsonB.Len() == 0 || outs[0].csvB.Len() == 0 {
		t.Error("empty sweep output")
	}
}

func TestMemoization(t *testing.T) {
	eng := New(Options{Workers: 4})
	cfgs := testGrid().Configs()
	// Duplicate the whole list in one call: singleflight must simulate
	// each unique config once.
	doubled := append(append([]core.Config{}, cfgs...), cfgs...)
	if _, err := eng.RunConfigs(context.Background(), doubled); err != nil {
		t.Fatal(err)
	}
	if got := eng.Store().Misses(); got != int64(len(cfgs)) {
		t.Errorf("misses = %d, want %d (one per unique config)", got, len(cfgs))
	}
	if got := eng.Store().Hits(); got != int64(len(cfgs)) {
		t.Errorf("hits = %d, want %d (one per duplicate)", got, len(cfgs))
	}
	if got := eng.Store().Len(); got != len(cfgs) {
		t.Errorf("store holds %d entries, want %d", got, len(cfgs))
	}
	// A second pass is all hits, no new simulations.
	if _, err := eng.RunConfigs(context.Background(), cfgs); err != nil {
		t.Fatal(err)
	}
	if got := eng.Store().Misses(); got != int64(len(cfgs)) {
		t.Errorf("misses after re-run = %d, want %d", got, len(cfgs))
	}
	if got := eng.Store().Hits(); got != int64(2*len(cfgs)) {
		t.Errorf("hits after re-run = %d, want %d", got, 2*len(cfgs))
	}
}

func TestStoreSingleflightConcurrent(t *testing.T) {
	s := NewStore()
	cfg := core.Config{Benchmark: "gcc", Insts: 20_000}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Result(cfg); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if s.Misses() != 1 {
		t.Errorf("misses = %d, want 1", s.Misses())
	}
	if s.Hits() != 15 {
		t.Errorf("hits = %d, want 15", s.Hits())
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	eng := New(Options{
		Workers: 2,
		// Cancel as soon as the first job completes: the sweep must stop
		// and report the cancellation instead of running the whole grid.
		Progress: func(done, total int) { once.Do(cancel) },
	})
	g := Grid{
		Benchmarks: []string{"gcc", "swim", "fpppp"},
		DPolicies:  AllDPolicies(),
		Insts:      20_000,
	}
	_, err := eng.Run(ctx, g)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := eng.Store().Misses(); n >= int64(g.Size()) {
		t.Errorf("cancellation did not stop the sweep: %d of %d cells simulated", n, g.Size())
	}

	// A pre-cancelled context runs nothing.
	pre, cancel2 := context.WithCancel(context.Background())
	cancel2()
	eng2 := New(Options{Workers: 2})
	if _, err := eng2.RunConfigs(pre, g.Configs()); err != context.Canceled {
		t.Fatalf("pre-cancelled err = %v, want context.Canceled", err)
	}
	if n := eng2.Store().Misses(); n != 0 {
		t.Errorf("pre-cancelled sweep simulated %d configs", n)
	}
}

func TestRunError(t *testing.T) {
	eng := New(Options{Workers: 2})
	g := Grid{Benchmarks: []string{"gcc", "no-such-benchmark"}, Insts: 20_000}
	if _, err := eng.Run(context.Background(), g); err == nil {
		t.Fatal("unknown benchmark did not fail the sweep")
	}
	// The error is memoized: retrying fails the same way without panicking.
	if _, err := eng.Result(core.Config{Benchmark: "no-such-benchmark", Insts: 20_000}); err == nil {
		t.Fatal("memoized error lookup succeeded")
	}
}

func TestRecordFields(t *testing.T) {
	eng := New(Options{Workers: 1})
	sw, err := eng.Run(context.Background(), Grid{Benchmarks: []string{"gcc"}, Insts: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	r := sw.Records[0]
	if r.Benchmark != "gcc" || r.DPolicy != "parallel" || r.IPolicy != "parallel" {
		t.Errorf("record identity: %+v", r)
	}
	// Canonical defaults must be materialized, not left at zero.
	if r.DSize != 16<<10 || r.DWays != 4 || r.DLatency != 1 || r.Insts != 20_000 {
		t.Errorf("record geometry not canonical: %+v", r)
	}
	if r.Cycles <= 0 || r.IPC <= 0 || r.DCacheEnergy <= 0 || r.ProcEnergy <= 0 {
		t.Errorf("record stats empty: %+v", r)
	}
	var csvB bytes.Buffer
	if err := sw.WriteCSV(&csvB); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvB.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV has %d lines, want header+1", len(lines))
	}
	if got := len(strings.Split(lines[0], ",")); got != len(csvHeader) {
		t.Errorf("CSV header has %d columns, want %d", got, len(csvHeader))
	}
}
