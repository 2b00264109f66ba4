package traceconv

import (
	"bytes"
	"io"
	"testing"

	"waycache/internal/trace"
	"waycache/internal/workload"
)

// benchInput renders n instructions of a real suite walker in the given
// external format — the same class of input the importers see in
// production, at a size large enough to amortize setup.
func benchInput(b *testing.B, format string, n int64) []byte {
	b.Helper()
	p, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	exp, err := ExporterFor(format)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := exp(&buf, p.NewWalker(), n); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func benchImport(b *testing.B, format string) {
	input := benchInput(b, format, 200000)
	imp, err := ByName(format)
	if err != nil {
		b.Fatal(err)
	}
	sink := func(*trace.Inst) error { return nil }
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := imp.Read(bytes.NewReader(input), Options{}, sink); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkImportChampsim(b *testing.B)   { benchImport(b, "champsim") }
func BenchmarkImportDrcachesim(b *testing.B) { benchImport(b, "drcachesim") }
func BenchmarkImportLackey(b *testing.B)     { benchImport(b, "lackey") }

// BenchmarkConvert measures the full import-to-.wct pipeline (parse,
// reconcile, re-encode) per format.
func BenchmarkConvert(b *testing.B) {
	for _, format := range Names() {
		b.Run(format, func(b *testing.B) {
			input := benchInput(b, format, 200000)
			imp, err := ByName(format)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(input)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Convert(imp, bytes.NewReader(input), io.Discard, Options{Benchmark: "gcc"}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
