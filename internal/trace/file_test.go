package trace

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"waycache/internal/isa"
)

// wellFormed is a hand-built stream exercising every encoding path: PC
// discontinuities, register presence/absence, negative offsets, memory
// records violating the Addr == BaseValue+Offset invariant, taken and
// not-taken control flow, and backward/forward targets.
func wellFormed() []Inst {
	return []Inst{
		{PC: 0x40_0000, Kind: isa.KindIntALU, Dst: 3, Src1: 1, Src2: 2},
		{PC: 0x40_0004, Kind: isa.KindLoad, Dst: 4, Src1: 3,
			Addr: 0x60_0040, BaseValue: 0x60_0000, Offset: 0x40},
		{PC: 0x40_0008, Kind: isa.KindLoad, Dst: 5,
			Addr: 0x60_0038, BaseValue: 0x60_0040, Offset: -8},
		// Invariant violation: BaseValue unrelated to Addr-Offset.
		{PC: 0x40_000c, Kind: isa.KindStore, Src1: 4, Src2: 5,
			Addr: 0x7fff_0000, BaseValue: 0x1234_5678, Offset: 16},
		{PC: 0x40_0010, Kind: isa.KindBranch, Src1: 5, Taken: true, Target: 0x40_0000},
		// PC discontinuity (the branch above jumped backwards).
		{PC: 0x40_0000, Kind: isa.KindNop},
		{PC: 0x40_0004, Kind: isa.KindBranch, Taken: false, Target: 0x40_0100},
		{PC: 0x40_0008, Kind: isa.KindCall, Taken: true, Target: 0x41_0000},
		{PC: 0x41_0000, Kind: isa.KindFPDiv, Dst: isa.FP(1), Src1: isa.FP(2), Src2: isa.FP(3)},
		{PC: 0x41_0004, Kind: isa.KindReturn, Taken: true, Target: 0x40_000c},
		{PC: 0x40_000c, Kind: isa.KindJump, Taken: true, Target: 0x40_0000},
		{PC: 0x40_0000, Kind: isa.KindStore, Addr: 8, BaseValue: 0, Offset: 8},
	}
}

func roundTrip(t *testing.T, h Header, insts []Inst) []Inst {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, h)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for i := range insts {
		if err := w.Write(&insts[i]); err != nil {
			t.Fatalf("Write[%d]: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	src, err := loadBytes(t, buf.Bytes())
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got := src.Header(); got != h {
		t.Fatalf("header round trip: got %+v, want %+v", got, h)
	}
	out := drain(src)
	if src.Err() != nil {
		t.Fatalf("decode error: %v", src.Err())
	}
	return out
}

// loadBytes decodes data as a trace file through a fresh arena.
func loadBytes(t *testing.T, data []byte) (*MemSource, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t"+FileExt)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return NewArena(0).Load(path)
}

func TestRoundTripLossless(t *testing.T) {
	insts := wellFormed()
	h := Header{Benchmark: "synthetic", Seed: 0xdeadbeef, Insts: int64(len(insts))}
	got := roundTrip(t, h, insts)
	if !reflect.DeepEqual(got, insts) {
		t.Fatalf("decoded stream differs:\n got %+v\nwant %+v", got, insts)
	}
}

func TestRoundTripUnknownCount(t *testing.T) {
	insts := wellFormed()
	got := roundTrip(t, Header{Benchmark: "streaming"}, insts)
	if !reflect.DeepEqual(got, insts) {
		t.Fatal("unknown-count stream did not round trip")
	}
}

func TestRoundTripEmpty(t *testing.T) {
	if got := roundTrip(t, Header{}, nil); len(got) != 0 {
		t.Fatalf("empty trace decoded %d records", len(got))
	}
}

func TestDeclaredCountStopsBeforeTrailingBytes(t *testing.T) {
	insts := wellFormed()
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, Header{Insts: int64(len(insts))})
	for i := range insts {
		w.Write(&insts[i])
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Trailing garbage after the declared records must be ignored: it is
	// room for future trailer sections.
	buf.WriteString("future trailer, not records")
	src, err := loadBytes(t, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(drain(src)); n != len(insts) || src.Err() != nil {
		t.Fatalf("decoded %d records (err %v), want %d and nil", n, src.Err(), len(insts))
	}
}

func TestWriterDeclaredCountMismatch(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, Header{Insts: 5})
	in := Inst{Kind: isa.KindNop}
	w.Write(&in)
	if err := w.Close(); err == nil {
		t.Fatal("Close accepted 1 written record against 5 declared")
	}
}

func TestWriterRejectsInvalidKind(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, Header{})
	in := Inst{Kind: isa.Kind(isa.NumKinds)}
	if err := w.Write(&in); err == nil {
		t.Fatal("Write accepted out-of-range kind")
	}
}

func TestWriterRejectsKindForeignPayload(t *testing.T) {
	// Fields the format would not persist for the record's kind must fail
	// the write, not silently decode differently: a successful capture is
	// the losslessness guarantee.
	cases := map[string]Inst{
		"taken store":         {Kind: isa.KindStore, Addr: 8, BaseValue: 8, Taken: true},
		"load with target":    {Kind: isa.KindLoad, Addr: 8, BaseValue: 8, Target: 0x40},
		"branch with address": {Kind: isa.KindBranch, Taken: true, Addr: 8},
		"jump with offset":    {Kind: isa.KindJump, Offset: 8},
		"alu with address":    {Kind: isa.KindIntALU, Addr: 8},
		"taken nop":           {Kind: isa.KindNop, Taken: true},
		"fp op with base":     {Kind: isa.KindFPMul, BaseValue: 1},
		"compute with target": {Kind: isa.KindFPALU, Target: 0x40},
	}
	for name, in := range cases {
		var buf bytes.Buffer
		w, _ := NewWriter(&buf, Header{})
		if err := w.Write(&in); err == nil {
			t.Errorf("%s: Write accepted a record the format cannot represent", name)
		}
	}
}

func TestReaderRejectsBadMagic(t *testing.T) {
	if _, err := loadBytes(t, []byte("NOPEx....")); err == nil {
		t.Fatal("reader accepted bad magic")
	}
}

func TestReaderRejectsUnknownVersion(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, Header{})
	w.Close()
	b := buf.Bytes()
	b[len(Magic)] = FormatVersion + 1
	if _, err := loadBytes(t, b); err == nil {
		t.Fatal("reader accepted a future format version")
	}
}

func TestReaderSkipsUnknownHeaderFields(t *testing.T) {
	// A future writer may add header fields; an old reader must skip them
	// and still decode everything else. Build the header by hand: magic,
	// version, 2 fields (unknown tag 99, then benchmark).
	var buf bytes.Buffer
	buf.WriteString(Magic)
	buf.WriteByte(FormatVersion)
	var tmp []byte
	tmp = binary.AppendUvarint(tmp, 2) // field count
	tmp = binary.AppendUvarint(tmp, 99)
	tmp = binary.AppendUvarint(tmp, 4)
	tmp = append(tmp, "wxyz"...)
	tmp = binary.AppendUvarint(tmp, tagBenchmark)
	tmp = binary.AppendUvarint(tmp, 3)
	tmp = append(tmp, "gcc"...)
	buf.Write(tmp)
	buf.WriteByte(byte(isa.KindNop)) // one record
	src, err := loadBytes(t, buf.Bytes())
	if err != nil {
		t.Fatalf("reader choked on unknown header field: %v", err)
	}
	if src.Header().Benchmark != "gcc" {
		t.Fatalf("benchmark = %q after skipping unknown field", src.Header().Benchmark)
	}
	if got := drain(src); len(got) != 1 || got[0].Kind != isa.KindNop || src.Err() != nil {
		t.Fatalf("records after unknown field: %+v err %v", got, src.Err())
	}
}

func TestReaderReportsTruncation(t *testing.T) {
	insts := wellFormed()
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, Header{Insts: int64(len(insts))})
	for i := range insts {
		w.Write(&insts[i])
	}
	w.Close()
	full := buf.Bytes()
	// Chop inside the record section: every prefix must either decode
	// cleanly short (never here, count is declared) or set Err.
	src, err := loadBytes(t, full[:len(full)-3])
	if err != nil {
		t.Fatal(err)
	}
	drain(src)
	if src.Err() == nil {
		t.Fatal("truncated declared-count trace decoded without error")
	}
}

func TestReaderRejectsCorruptFlags(t *testing.T) {
	cases := map[string]byte{
		"taken flag on memory kind":        byte(isa.KindLoad) | opTaken,
		"base flag on control kind":        byte(isa.KindJump) | opBaseValue,
		"payload flags on compute kind":    byte(isa.KindIntALU) | opTaken,
		"base payload flag on compute":     byte(isa.KindIntALU) | opBaseValue,
		"invalid kind nibble (12 of 0-11)": byte(isa.NumKinds),
	}
	for name, op := range cases {
		var buf bytes.Buffer
		w, _ := NewWriter(&buf, Header{})
		w.Close()
		buf.WriteByte(op)
		// Give varint-hungry paths bytes to chew so the flag check is
		// what trips, not EOF.
		buf.Write([]byte{0, 0, 0, 0, 0})
		src, err := loadBytes(t, buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		drain(src)
		if src.Err() == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestCaptureStopsAtDeclaredCount(t *testing.T) {
	// An "infinite" source: Capture must stop at Header.Insts.
	src := pull{&Repeat{Insts: wellFormed()}}
	var buf bytes.Buffer
	n, err := Capture(&buf, Header{Benchmark: "rep", Insts: 100}, src)
	if err != nil || n != 100 {
		t.Fatalf("Capture = %d, %v; want 100, nil", n, err)
	}
	mem, err := loadBytes(t, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if count := len(drain(mem)); count != 100 || mem.Err() != nil {
		t.Fatalf("replayed %d records, err %v", count, mem.Err())
	}
}

func TestCaptureShortSourceFails(t *testing.T) {
	src := pull{NewMemSource(wellFormed(), Header{})}
	var buf bytes.Buffer
	if _, err := Capture(&buf, Header{Insts: 10_000}, src); err == nil {
		t.Fatal("Capture of a too-short source succeeded")
	}
}

func TestCaptureFileAndOpen(t *testing.T) {
	insts := wellFormed()
	path := filepath.Join(t.TempDir(), "synthetic"+FileExt)
	h := Header{Benchmark: "synthetic", Seed: 7, Insts: int64(len(insts))}
	if err := CaptureFile(path, h, pull{NewMemSource(insts, Header{})}); err != nil {
		t.Fatalf("CaptureFile: %v", err)
	}
	if got, err := ReadHeader(path); err != nil || got != h {
		t.Fatalf("ReadHeader = %+v, %v; want %+v", got, err, h)
	}
	src, err := NewArena(0).Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got := drain(src); src.Err() != nil || !reflect.DeepEqual(got, insts) {
		t.Fatalf("file round trip failed: err %v", src.Err())
	}
}

func TestCaptureFileRemovesPartialOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad"+FileExt)
	err := CaptureFile(path, Header{Insts: 99}, pull{NewMemSource(wellFormed(), Header{})})
	if err == nil {
		t.Fatal("CaptureFile of a short source succeeded")
	}
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Fatalf("partial capture left on disk: %v", serr)
	}
}

func TestVarintHelpers(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, 1 << 40, -(1 << 40), 1<<63 - 1, -1 << 63} {
		if got := zigzagDecode(zigzagEncode(v)); got != v {
			t.Fatalf("zigzag(%d) round trip = %d", v, got)
		}
	}
}
