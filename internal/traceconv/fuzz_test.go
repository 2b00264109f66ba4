package traceconv

// Native fuzz targets for the three importers. Each target drives one
// importer over arbitrary bytes — seeded from the golden fixtures so the
// fuzzer starts inside the valid grammar — in both strict and lossy
// mode, and checks the invariants an import must keep no matter what it
// is fed:
//
//   - no panic and no unbounded expansion (MaxInsts caps the output);
//   - a Convert that reports success wrote a well-formed .wct capture
//     holding exactly Stats.Insts records;
//   - imports are deterministic: the same bytes convert to the same
//     capture, byte for byte (the content-hash contract trace:// refs
//     depend on).
//
// Run one continuously with e.g.
//
//	go test ./internal/traceconv -fuzz FuzzImportLackey -fuzztime 30s

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"waycache/internal/trace"
)

func fuzzImport(f *testing.F, format, fixture string) {
	seed, err := os.ReadFile(filepath.Join("testdata", "traceconv", fixture))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2]) // mid-record / mid-line truncation
	f.Add([]byte{})
	imp, err := ByName(format)
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(f.TempDir(), "out"+trace.FileExt) // inputs run one at a time per process
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, lossy := range []bool{false, true} {
			opts := Options{Benchmark: "fuzz", MaxInsts: 4096, Lossy: lossy}
			var out bytes.Buffer
			st, err := Convert(imp, bytes.NewReader(data), &out, opts)
			if err != nil {
				continue // rejected cleanly; nothing more to hold it to
			}
			_, insts, err := load(path, out.Bytes())
			if err != nil {
				t.Fatalf("%s lossy=%v: successful import wrote a corrupt capture (%d records readable): %v", format, lossy, len(insts), err)
			}
			if n := int64(len(insts)); n != st.Insts {
				t.Fatalf("%s lossy=%v: capture holds %d records, Stats.Insts = %d", format, lossy, n, st.Insts)
			}
			var again bytes.Buffer
			if _, err := Convert(imp, bytes.NewReader(data), &again, opts); err != nil {
				t.Fatalf("%s lossy=%v: re-converting identical input failed: %v", format, lossy, err)
			}
			if !bytes.Equal(out.Bytes(), again.Bytes()) {
				t.Fatalf("%s lossy=%v: two converts of identical input produced different captures", format, lossy)
			}
		}
	})
}

func FuzzImportChampSim(f *testing.F)   { fuzzImport(f, "champsim", "champsim.bin") }
func FuzzImportDRCacheSim(f *testing.F) { fuzzImport(f, "drcachesim", "drcachesim.csv") }
func FuzzImportLackey(f *testing.F)     { fuzzImport(f, "lackey", "lackey.txt") }
