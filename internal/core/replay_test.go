package core

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"waycache/internal/access"
	"waycache/internal/trace"
	"waycache/internal/workload"
)

// captureBench records n instructions of the named benchmark to a trace
// file under dir and returns its path.
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

// TestWalkerCaptureRoundTrip checks losslessness against a real workload:
// the decoded stream equals the walker's, instruction for instruction.
func TestWalkerCaptureRoundTrip(t *testing.T) {
	const bench, n = "gcc", 20_000
	path := captureBench(t, t.TempDir(), bench, n)

	p, _ := workload.ByName(bench)
	want := p.NewWalker()
	src, err := trace.NewArena(0).Load(path)
	if err != nil {
		t.Fatal(err)
	}

	var exp trace.Inst
	i := 0
	for w := src.Window(); len(w) > 0; w = src.Window() {
		for _, got := range w {
			if !want.Next(&exp) {
				t.Fatalf("walker ended at %d", i)
			}
			if got != exp {
				t.Fatalf("instruction %d differs:\n got %+v\nwant %+v", i, got, exp)
			}
			i++
		}
		src.Advance(len(w))
	}
	if i != n || src.Err() != nil {
		t.Fatalf("trace holds %d records (err %v), want %d", i, src.Err(), n)
	}
}

// TestReplayMatchesWalker is the tentpole equivalence property: simulating
// from a captured trace yields results identical to simulating the live
// walker — same timing, cache, energy and processor statistics.
func TestReplayMatchesWalker(t *testing.T) {
	const bench, insts = "gcc", 30_000
	path := captureBench(t, t.TempDir(), bench, insts)

	cfg := Config{
		Benchmark: bench, Insts: insts,
		DPolicy: access.DSelDMWayPred, IPolicy: access.IWayPred,
	}
	live, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	replayCfg := cfg
	replayCfg.Trace = path
	replay, err := Run(replayCfg)
	if err != nil {
		t.Fatal(err)
	}

	// The configs differ (Trace path) by construction; every simulated
	// quantity must not.
	live.Config, replay.Config = Config{}, Config{}
	if !reflect.DeepEqual(live, replay) {
		t.Fatalf("replayed results differ from walker results:\n live  %+v\n replay %+v", live, replay)
	}
}

func TestReplayWithoutBenchmarkUsesHeaderName(t *testing.T) {
	const bench, insts = "swim", 5_000
	path := captureBench(t, t.TempDir(), bench, insts)
	res, err := Run(Config{Trace: path, Insts: insts})
	if err != nil {
		t.Fatal(err)
	}
	if res.Benchmark != bench {
		t.Fatalf("Benchmark = %q, want header name %q", res.Benchmark, bench)
	}
}

func TestReplayRejectsTooShortTrace(t *testing.T) {
	path := captureBench(t, t.TempDir(), "gcc", 1_000)
	if _, err := Run(Config{Trace: path, Insts: 10_000}); err == nil {
		t.Fatal("Run accepted a trace shorter than the requested instruction count")
	}
}

// TestReplayShortUndeclaredTrace replays a capture that declares no
// instruction count and holds fewer than the run needs: the run fails
// naming how many instructions it consumed, a count that is not a
// multiple of the arena's expansion run.
func TestReplayShortUndeclaredTrace(t *testing.T) {
	const have, need = 1_234, 10_000
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gcc"+trace.FileExt)
	src := &firstN{src: p.NewWalker(), n: have}
	if err := trace.CaptureFile(path, trace.Header{Benchmark: p.Name, Seed: p.Seed}, src); err != nil {
		t.Fatal(err)
	}
	_, err = Run(Config{Trace: path, Insts: need})
	want := fmt.Sprintf("trace ended after %d of %d instructions", have, need)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("short replay error %v, want it to contain %q", err, want)
	}
}

// TestReplayErrorsNameTheTrace: a file that is not a trace and a capture
// cut short both fail the run with an error naming the file.
func TestReplayErrorsNameTheTrace(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad"+trace.FileExt)
	if err := os.WriteFile(bad, []byte("NOPE\x01\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	const insts = 5_000
	cut := captureBench(t, dir, "gcc", insts)
	data, err := os.ReadFile(cut)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cut, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{bad, cut} {
		_, err := Run(Config{Trace: path, Insts: insts})
		if err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("Run(%s) = %v, want an error naming the file", filepath.Base(path), err)
		}
	}
}

// firstN is the first n instructions of src.
type firstN struct {
	src trace.Source
	n   int64
}

func (f *firstN) Next(out *trace.Inst) bool {
	if f.n <= 0 || !f.src.Next(out) {
		return false
	}
	f.n--
	return true
}

func TestReplayRejectsBenchmarkMismatch(t *testing.T) {
	path := captureBench(t, t.TempDir(), "gcc", 1_000)
	if _, err := Run(Config{Benchmark: "swim", Trace: path, Insts: 1_000}); err == nil {
		t.Fatal("Run accepted a gcc trace for a swim config")
	}
}

func TestKeySeparatesTraceFromWalker(t *testing.T) {
	cfg := Config{Benchmark: "gcc", Insts: 1000}
	walkKey, ok := cfg.Key()
	if !ok {
		t.Fatal("walker config must be memoizable")
	}
	cfg.Trace = "/tmp/gcc.wct"
	traceKey, ok := cfg.Key()
	if !ok {
		t.Fatal("trace config must be memoizable")
	}
	if walkKey == traceKey {
		t.Fatal("trace and walker runs share a memo key")
	}
}
