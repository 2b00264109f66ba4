package trace

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"waycache/internal/isa"
)

// FuzzTraceReader throws arbitrary bytes at the .wct decoder. A reader
// fed garbage must fail cleanly (error, never panic). The arena, loading
// the same bytes from a file, must agree with the streaming reader: the
// same header error, or the same header, records and deferred error,
// whether its source is drained through Next or through Window/Advance in
// a stride the fuzzer picks. And whenever the reader decodes a stream cleanly, the decoded records
// must re-encode through Writer — the reader's flag validation
// guarantees every accepted record is one the writer could have
// produced — and decode again to the identical instruction sequence.
func FuzzTraceReader(f *testing.F) {
	// Seed: a well-formed capture touching every record class (compute,
	// zero- and nonzero-offset memory, control with and without PC
	// discontinuities) so the fuzzer starts inside the grammar.
	seed := encodeTrace(f, Header{Benchmark: "fuzz-seed", Seed: 7, Insts: 5}, []Inst{
		{PC: 0x1000, Kind: isa.KindIntALU, Dst: 1, Src1: 2, Src2: 3},
		{PC: 0x1000 + isa.InstBytes, Kind: isa.KindLoad, Addr: 0x2000, BaseValue: 0x2000},
		{PC: 0x1000 + 2*isa.InstBytes, Kind: isa.KindStore, Addr: 0x2040, BaseValue: 0x2038, Offset: 8},
		{PC: 0x1000 + 3*isa.InstBytes, Kind: isa.KindBranch, Taken: true, Target: 0x1000},
		{PC: 0x1000, Kind: isa.KindJump, Taken: true, Target: 0x3000},
	})
	f.Add(seed, uint16(0))
	f.Add(seed[:len(seed)-3], uint16(2)) // truncated mid-record
	f.Add([]byte(Magic), uint16(0))      // magic without version or header
	f.Add([]byte{}, uint16(0))
	// A capture that revisits a few PCs with both branch directions,
	// several return targets and interleaved escapes, so the fuzzer also
	// starts inside the paths where the arena's static table shares.
	shared := sharedInsts(rand.New(rand.NewSource(9)), 2*expandRun+31)
	f.Add(encodeTrace(f, Header{Benchmark: "fuzz-shared", Insts: int64(len(shared))}, shared), uint16(expandRun+3))
	// A loop whose addresses step across every edge of the arena's 2-byte
	// deltas, so the fuzzer starts next to the wide-address sentinel.
	edges := deltaEdgeInsts(2 * len(deltaEdges))
	f.Add(encodeTrace(f, Header{Benchmark: "fuzz-deltas", Insts: int64(len(edges))}, edges), uint16(5))

	path := filepath.Join(f.TempDir(), "fuzz"+FileExt) // inputs run one at a time per process
	f.Fuzz(func(t *testing.T, data []byte, stride uint16) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		mem, loadErr := NewArena(0).Load(path)
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			if loadErr == nil || loadErr.Error() != err.Error() {
				t.Fatalf("reader rejects the header with %q, arena load returns %v", err, loadErr)
			}
			return // rejected at the header: otherwise the only requirement is no panic
		}
		if loadErr != nil {
			t.Fatalf("arena rejects a header the reader accepts: %v", loadErr)
		}
		h := r.Header()
		insts := drain(r)
		if mem.Header() != h {
			t.Fatalf("arena header %+v, reader header %+v", mem.Header(), h)
		}
		replayed := drain(mem)
		if len(replayed) != len(insts) {
			t.Fatalf("arena replays %d records, reader decodes %d", len(replayed), len(insts))
		}
		for i := range insts {
			if replayed[i] != insts[i] {
				t.Fatalf("record %d: arena %+v, reader %+v", i, replayed[i], insts[i])
			}
		}
		// The same records again through windows, in a stride from 1 to
		// past two expansion runs.
		step := 1 + int(stride)%(2*expandRun+1)
		mem.Reset()
		for pos := 0; ; {
			w := mem.Window()
			if len(w) == 0 {
				if pos != len(insts) || mem.Count() != int64(pos) {
					t.Fatalf("windows end at %d (Count %d), reader decodes %d", pos, mem.Count(), len(insts))
				}
				break
			}
			k := min(step, len(w))
			for j := range w[:k] {
				if pos+j >= len(insts) || w[j] != insts[pos+j] {
					t.Fatalf("stride %d, record %d: arena window %+v differs from the reader", step, pos+j, w[j])
				}
			}
			mem.Advance(k)
			pos += k
		}
		if errText(mem.Err()) != errText(r.Err()) {
			t.Fatalf("arena error %q, reader error %q", errText(mem.Err()), errText(r.Err()))
		}
		if r.Err() != nil {
			return // corrupt tail after a valid prefix: clean failure is enough
		}

		var reenc bytes.Buffer
		w, err := NewWriter(&reenc, Header{Benchmark: h.Benchmark, Seed: h.Seed, Insts: int64(len(insts))})
		if err != nil {
			t.Fatal(err)
		}
		for i := range insts {
			if err := w.Write(&insts[i]); err != nil {
				t.Fatalf("record %d decoded from a valid trace was rejected on re-encode: %v", i, err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r2, err := NewReader(bytes.NewReader(reenc.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded trace has an unreadable header: %v", err)
		}
		for i := range insts {
			var got Inst
			if !r2.Next(&got) {
				t.Fatalf("re-encoded trace ends at record %d of %d: %v", i, len(insts), r2.Err())
			}
			if got != insts[i] {
				t.Fatalf("record %d changed across a decode/encode round trip:\n  was %+v\n  got %+v", i, insts[i], got)
			}
		}
	})
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}
