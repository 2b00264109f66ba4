package trace_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"waycache/internal/trace"
	"waycache/internal/workload"
)

// suiteInsts is the length of one suite capture in a replayed sweep.
const suiteInsts = 150_000

// fetchWidth is the pipeline's fetch stride: the instructions one fetch
// reads out of a window.
const fetchWidth = 8

// suiteCapture encodes the first n instructions of the gcc walker.
func suiteCapture(tb testing.TB, n int64) []byte {
	tb.Helper()
	p, err := workload.ByName("gcc")
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	h := trace.Header{Benchmark: p.Name, Seed: p.Seed, Insts: n}
	if _, err := trace.Capture(&buf, h, p.NewWalker()); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// suiteFootprint is the exact ResidentBytes of each suite benchmark's
// first suiteInsts instructions, decoded through an arena. It pins the
// resident form: a change to how the arena holds a capture must change
// this table, and the test fails the same way on any host, unlike a
// wall-clock reading.
var suiteFootprint = map[string]int64{
	"applu":   181596,
	"fpppp":   190962,
	"gcc":     246208,
	"go":      215862,
	"li":      212282,
	"m88ksim": 149582,
	"mgrid":   131112,
	"perl":    265584,
	"swim":    145576,
	"troff":   223768,
	"vortex":  201302,
}

// TestSuiteFootprint captures each suite benchmark's first suiteInsts
// instructions and checks what its decode keeps resident against
// suiteFootprint.
func TestSuiteFootprint(t *testing.T) {
	dir := t.TempDir()
	var bad []string
	for _, name := range workload.Names() {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+trace.FileExt)
		h := trace.Header{Benchmark: name, Seed: p.Seed, Insts: suiteInsts}
		if err := trace.CaptureFile(path, h, p.NewWalker()); err != nil {
			t.Fatal(err)
		}
		a := trace.NewArena(0)
		if _, err := a.Load(path); err != nil {
			t.Fatal(err)
		}
		if a.Resident() != suiteInsts {
			t.Fatalf("%s: %d instructions resident, want %d", name, a.Resident(), suiteInsts)
		}
		got := a.ResidentBytes()
		if want, ok := suiteFootprint[name]; !ok || got != want {
			bad = append(bad, fmt.Sprintf("%s: ResidentBytes %d (%.2f B/inst), table has %d", name, got, float64(got)/suiteInsts, want))
		}
	}
	if len(bad) > 0 || len(suiteFootprint) != len(workload.Names()) {
		t.Fatalf("suite footprint differs from suiteFootprint (%d entries for %d benchmarks):\n%s",
			len(suiteFootprint), len(workload.Names()), strings.Join(bad, "\n"))
	}
}

// TestMemSourceWindowZeroAllocs pins arena replay as allocation-free:
// draining a capture through Window/Advance in fetch-width strides, which
// refills the expansion buffer dozens of times, allocates nothing once the
// source is built.
func TestMemSourceWindowZeroAllocs(t *testing.T) {
	const n = 20_000
	path := filepath.Join(t.TempDir(), "gcc"+trace.FileExt)
	if err := os.WriteFile(path, suiteCapture(t, n), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := trace.NewArena(0).Load(path)
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(5, func() {
		src.Reset()
		for w := src.Window(); len(w) > 0; w = src.Window() {
			src.Advance(min(len(w), fetchWidth))
		}
	})
	if src.Err() != nil || src.Count() != n {
		t.Fatalf("replayed %d of %d records: %v", src.Count(), n, src.Err())
	}
	if avg != 0 {
		t.Fatalf("draining a %d-record capture through windows made %.0f allocations, want 0", n, avg)
	}
}

// BenchmarkArenaLoad loads a suite-sized capture file through a fresh
// arena: the read, the header parse and the in-place decode a replayed
// sweep pays once per capture. It also reports what the decode keeps
// resident per instruction.
func BenchmarkArenaLoad(b *testing.B) {
	data := suiteCapture(b, suiteInsts)
	path := filepath.Join(b.TempDir(), "gcc"+trace.FileExt)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	var resident int64
	for i := 0; i < b.N; i++ {
		a := trace.NewArena(0)
		src, err := a.Load(path)
		if err != nil {
			b.Fatal(err)
		}
		if src.Err() != nil || src.Remaining() != suiteInsts {
			b.Fatalf("loaded %d records: %v", src.Remaining(), src.Err())
		}
		resident = a.ResidentBytes()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*suiteInsts), "ns/inst")
	b.ReportMetric(float64(resident)/suiteInsts, "resident-B/inst")
}

// BenchmarkMemSourceWindow drains a suite-sized capture, decoded once
// through an arena, via Window/Advance in fetch-width strides: the record
// expansion a replayed simulation pays per instruction.
func BenchmarkMemSourceWindow(b *testing.B) {
	data := suiteCapture(b, suiteInsts)
	path := filepath.Join(b.TempDir(), "gcc"+trace.FileExt)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		b.Fatal(err)
	}
	src, err := trace.NewArena(0).Load(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var pcs uint64
	for i := 0; i < b.N; i++ {
		src.Reset()
		for w := src.Window(); len(w) > 0; w = src.Window() {
			k := min(len(w), fetchWidth)
			for j := range w[:k] {
				pcs += w[j].PC
			}
			src.Advance(k)
		}
		if src.Count() != suiteInsts {
			b.Fatalf("replayed %d records", src.Count())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*suiteInsts), "ns/inst")
	benchSink = pcs
}

// benchSink keeps benchmark loops from being optimised away.
var benchSink uint64
