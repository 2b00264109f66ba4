package workload

import (
	"testing"
	"time"

	"waycache/internal/trace"
)

// BenchmarkSuiteCapture builds every suite benchmark's capture at 150k
// instructions in a cold arena, as a sweep's first configuration of each
// benchmark does, and reports the cost per instruction (capture_ns/inst)
// beside bare walker generation of the same instructions (gen_ns/inst),
// program builds included in both, and the captures' resident size
// (resident_B/inst).
func BenchmarkSuiteCapture(b *testing.B) {
	const n = 150_000
	suite := Suite()
	var capture, gen time.Duration
	var resident int64
	for i := 0; i < b.N; i++ {
		start := time.Now()
		a := trace.NewArena(0)
		for _, p := range suite {
			h := trace.Header{Benchmark: p.Name, Seed: p.Seed, Insts: n}
			a.Capture(h, func() trace.Source { return p.NewWalker() })
		}
		capture += time.Since(start)
		resident = a.ResidentBytes()

		start = time.Now()
		var in trace.Inst
		for _, p := range suite {
			w := p.NewWalker()
			for k := 0; k < n; k++ {
				w.Next(&in)
			}
		}
		gen += time.Since(start)
	}
	insts := float64(n * len(suite))
	b.ReportMetric(float64(capture)/insts/float64(b.N), "capture_ns/inst")
	b.ReportMetric(float64(gen)/insts/float64(b.N), "gen_ns/inst")
	b.ReportMetric(float64(resident)/insts, "resident_B/inst")
}
