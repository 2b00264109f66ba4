package trace

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"waycache/internal/isa"
)

// FuzzTraceReader throws arbitrary bytes at the .wct decoder. A decode
// fed garbage must fail cleanly (error, never panic). The arena, loading
// the bytes from a file, must agree with flatDecode, which feeds the
// decoder one record at a time and skips the arena's run batching and
// static table: the same header error (and ReadHeader the same, prefixed
// with the path), or the same header, records and deferred error, read
// through Window/Advance in a stride the fuzzer picks. And whenever the
// bytes decode cleanly, the decoded records must re-encode through
// Writer — the decoder's flag validation guarantees every accepted
// record is one the writer could have produced — and decode again to the
// identical instruction sequence.
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
		_, probeErr := ReadHeader(path)
		want, err := flatDecode(data)
		if err != nil {
			if loadErr == nil || loadErr.Error() != err.Error() {
				t.Fatalf("flat decode rejects the header with %q, arena load returns %v", err, loadErr)
			}
			if probeErr == nil || probeErr.Error() != path+": "+err.Error() {
				t.Fatalf("flat decode rejects the header with %q, ReadHeader returns %v", err, probeErr)
			}
			return // rejected at the header: otherwise the only requirement is no panic
		}
		if loadErr != nil || probeErr != nil {
			t.Fatalf("arena load (%v) or ReadHeader (%v) rejects a header the flat decode accepts", loadErr, probeErr)
		}
		insts := want.insts
		if mem.Header() != want.h {
			t.Fatalf("arena header %+v, flat decode header %+v", mem.Header(), want.h)
		}
		// The records through windows, in a stride from 1 to past two
		// expansion runs.
		step := 1 + int(stride)%(2*expandRun+1)
		for pos := 0; ; {
			w := mem.Window()
			if len(w) == 0 {
				if pos != len(insts) || mem.Count() != int64(pos) {
					t.Fatalf("windows end at %d (Count %d), flat decode gives %d", pos, mem.Count(), len(insts))
				}
				break
			}
			k := min(step, len(w))
			for j := range w[:k] {
				if pos+j >= len(insts) || w[j] != insts[pos+j] {
					t.Fatalf("stride %d, record %d: arena window %+v differs from the flat decode", step, pos+j, w[j])
				}
			}
			mem.Advance(k)
			pos += k
		}
		if errText(mem.Err()) != errText(want.err) {
			t.Fatalf("arena error %q, flat decode error %q", errText(mem.Err()), errText(want.err))
		}
		if want.err != nil {
			return // corrupt tail after a valid prefix: clean failure is enough
		}

		h := Header{Benchmark: want.h.Benchmark, Seed: want.h.Seed, Insts: int64(len(insts))}
		var reenc bytes.Buffer
		w, err := NewWriter(&reenc, h)
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
		again, err := flatDecode(reenc.Bytes())
		if err != nil || again.err != nil || again.h != h {
			t.Fatalf("re-encoded trace decodes with header %+v (want %+v), errors %v, %v", again.h, h, err, again.err)
		}
		if len(again.insts) != len(insts) {
			t.Fatalf("re-encoded trace decodes %d of %d records", len(again.insts), len(insts))
		}
		for i := range insts {
			if again.insts[i] != insts[i] {
				t.Fatalf("record %d changed across a decode/encode round trip:\n  was %+v\n  got %+v", i, insts[i], again.insts[i])
			}
		}
	})
}

// flat is a trace decoded into a plain slice.
type flat struct {
	h     Header
	insts []Inst
	err   error // the decode error after insts, nil for a clean end
}

// flatDecode decodes data one record at a time through decoder.next,
// expanding each record into an Inst as it comes: the arena's reference.
// It returns an error only for a header the parse rejects.
func flatDecode(data []byte) (flat, error) {
	h, body, err := splitHeader(data)
	if err != nil {
		return flat{}, err
	}
	d := decoder{declared: h.Insts}
	out := flat{h: h}
	var rec [1]record
	for {
		k, n := d.next(body, rec[:])
		if k == 0 {
			break
		}
		body = body[n:]
		var in Inst
		rec[0].inst(d.esc, &in)
		out.insts = append(out.insts, in)
	}
	out.err = d.err
	return out, nil
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}
