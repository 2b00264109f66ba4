package core

import (
	"reflect"
	"runtime"
	"testing"

	"waycache/internal/trace"
	"waycache/internal/workload"
)

// walkerRun runs cfg on a live walker of its benchmark, bypassing the
// shared capture.
func walkerRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	p, err := workload.ByName(cfg.Benchmark)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Source = trace.Windowed(p.NewWalker(), 512)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameStats reports whether two results agree field for field, their
// configs aside.
func sameStats(a, b *Result) bool {
	x, y := *a, *b
	x.Config, y.Config = Config{}, Config{}
	return reflect.DeepEqual(x, y)
}

// TestCaptureMatchesWalker: a suite run replays the shared capture of its
// benchmark's walker stream, so its results equal a live walker's.
func TestCaptureMatchesWalker(t *testing.T) {
	for _, name := range workload.Names() {
		cfg := Config{Benchmark: name, Insts: 20_000}
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := walkerRun(t, cfg); !sameStats(got, want) {
			t.Errorf("%s: capture run differs from walker run:\n capture %+v\n walker  %+v", name, got, want)
		}
		if got.Config.Trace != "" || got.Config.Source != nil {
			t.Errorf("%s: capture leaked into the result's config: %+v", name, got.Config)
		}
	}
}

// TestGrownCaptureMatchesCold: a longer run after a shorter one grows the
// benchmark's capture, and replays exactly what a cold run of that length
// does.
func TestGrownCaptureMatchesCold(t *testing.T) {
	short := Config{Benchmark: "perl", Insts: 20_000}
	long := Config{Benchmark: "perl", Insts: 150_000}
	if _, err := Run(short); err != nil {
		t.Fatal(err)
	}
	got, err := Run(long)
	if err != nil {
		t.Fatal(err)
	}
	if got.Pipeline.Committed != long.Insts {
		t.Fatalf("grown capture committed %d instructions, want %d", got.Pipeline.Committed, long.Insts)
	}
	if want := walkerRun(t, long); !sameStats(got, want) {
		t.Fatalf("grown capture run differs from a cold run:\n grown %+v\n cold  %+v", got, want)
	}
	if again, err := Run(short); err != nil || !sameStats(again, walkerRun(t, short)) {
		t.Fatalf("short run replayed from the grown capture differs (err %v)", err)
	}
}

// TestLongRunStreamsWalker: a run too long to capture under the shared
// arena's cap reads its benchmark's walker as it goes, the parent's
// stream, without an allocation in proportion to its length.
func TestLongRunStreamsWalker(t *testing.T) {
	const insts = 4_000_000_000
	before := trace.SharedArena().ResidentBytes()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	src, _, _, err := Config{Benchmark: "gcc", Insts: insts}.source()
	if err != nil {
		t.Fatal(err)
	}
	var got []trace.Inst
	for w := src.Window(); len(got) < 1000; w = src.Window() {
		got = append(got, w...)
		src.Advance(len(w))
	}
	runtime.ReadMemStats(&m1)
	if took := m1.TotalAlloc - m0.TotalAlloc; took > 16<<20 {
		t.Fatalf("a %d-instruction run allocated %d bytes before its first windows", int64(insts), took)
	}
	if trace.SharedArena().ResidentBytes() != before {
		t.Fatal("a run too long to capture was captured")
	}
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	w := p.NewWalker()
	for i := range got {
		var want trace.Inst
		if w.Next(&want); got[i] != want {
			t.Fatalf("instruction %d: %+v, walker gives %+v", i, got[i], want)
		}
	}
}
