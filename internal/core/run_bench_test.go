package core

import (
	"testing"

	"waycache/internal/access"
	"waycache/internal/trace"
	"waycache/internal/workload"
)

// BenchmarkRunReplay times core.Run replaying an in-memory stream of each
// suite benchmark under every d-cache policy, one sub-benchmark per
// benchmark, and reports simulated ns per instruction. Each stream is
// materialised once and every MemSource is packed with the timer stopped,
// so the figure is the simulator's own cost: pipeline, caches and
// predictors, plus window fetch from packed records.
func BenchmarkRunReplay(b *testing.B) {
	const n = 150_000
	for _, name := range workload.Names() {
		prog, err := workload.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		insts := make([]trace.Inst, n)
		w := prog.NewWalker()
		for i := range insts {
			w.Next(&insts[i])
		}
		b.Run(name, func(b *testing.B) {
			runs := 0
			for i := 0; i < b.N; i++ {
				for pol := access.DParallel; pol <= access.DWayPredMRU; pol++ {
					b.StopTimer()
					src := trace.NewMemSource(insts, trace.Header{Benchmark: name})
					b.StartTimer()
					if _, err := Run(Config{Benchmark: name, Source: src, Insts: n, DPolicy: pol}); err != nil {
						b.Fatal(err)
					}
					runs++
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(runs*n), "ns/inst")
		})
	}
}
