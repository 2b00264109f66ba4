package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"waycache/internal/isa"
)

// corruptPrefix is the good prefix the record corruption cases follow: a
// compute record and a load, so the bad record is record 2 and starts at
// PC 0x1008 with a previous address of 0x2000. A case that replays fewer
// than two records follows only that many of them.
var corruptPrefix = []Inst{
	{PC: 0x1000, Kind: isa.KindIntALU},
	{PC: 0x1004, Kind: isa.KindLoad, Addr: 0x2000, BaseValue: 0x2000},
}

// encodeWithCount encodes insts under a header declaring declared
// records, whether or not that many follow.
func encodeWithCount(t *testing.T, declared int64, insts []Inst) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Benchmark: "pin", Insts: declared})
	if err != nil {
		t.Fatal(err)
	}
	for i := range insts {
		if err := w.Write(&insts[i]); err != nil {
			t.Fatal(err)
		}
	}
	w.Close() // flushes; a declared count the records fall short of is the point of some cases
	return buf.Bytes()
}

// TestDecodeErrorTexts pins, for each class of record corruption, the
// deferred error an arena-loaded MemSource reports and the good prefix it
// replays before it. Consumers compare these texts (sweep and waycached
// print them as fallback and failure reasons), so a decoder change that
// alters one is a visible change, not a refactor.
func TestDecodeErrorTexts(t *testing.T) {
	const (
		load, store = byte(isa.KindLoad), byte(isa.KindStore)
		ialu, br    = byte(isa.KindIntALU), byte(isa.KindBranch)
	)
	cases := []struct {
		name     string
		declared int64
		tail     []byte // raw bytes after the good prefix
		good     int64  // records replayed before the error
		err      string // "" for a clean end
	}{
		{"clean end, undeclared count", 0, nil, 2, ""},
		{"clean end, declared count", 2, nil, 2, ""},
		{"trailing bytes past the declared count", 2, []byte("trailer"), 2, ""},
		{"truncated at a record boundary", 5, nil, 2, "trace: record 2: file ends after 2 of 5 declared records"},
		{"truncated before the first record", 1, nil, 0, "trace: record 0: file ends after 0 of 1 declared records"},
		{"stops at a declared count of 1", 1, nil, 1, ""},

		{"pc delta cut before its first byte", 0, []byte{ialu | opPCDelta}, 2, "trace: record 2: pc delta: unexpected EOF"},
		{"pc delta cut mid-varint", 0, []byte{ialu | opPCDelta, 0x80}, 2, "trace: record 2: pc delta: unexpected EOF"},
		{"address delta cut before its first byte", 0, []byte{load}, 2, "trace: record 2: address delta: unexpected EOF"},
		{"address delta cut mid-varint", 0, []byte{load, 0x80, 0x80}, 2, "trace: record 2: address delta: unexpected EOF"},
		{"address delta cut after nine bytes", 5, []byte{load, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}, 2, "trace: record 2: address delta: unexpected EOF"},
		{"offset cut", 0, []byte{store, 0x02}, 2, "trace: record 2: offset: unexpected EOF"},
		{"offset cut mid-varint", 0, []byte{load, 0x02, 0xff}, 2, "trace: record 2: offset: unexpected EOF"},
		{"base value delta cut", 0, []byte{load | opBaseValue, 0x02, 0x00}, 2, "trace: record 2: base value delta: unexpected EOF"},
		{"target delta cut", 0, []byte{br}, 2, "trace: record 2: target delta: unexpected EOF"},
		{"target delta cut mid-varint", 0, []byte{br | opTaken, 0x81}, 2, "trace: record 2: target delta: unexpected EOF"},

		{"registers cut at 0 bytes", 0, []byte{ialu | opRegs}, 2, "trace: record 2: registers: EOF"},
		{"registers cut at 1 byte", 0, []byte{ialu | opRegs, 1}, 2, "trace: record 2: registers: unexpected EOF"},
		{"registers cut at 2 bytes", 0, []byte{ialu | opRegs, 1, 2}, 2, "trace: record 2: registers: unexpected EOF"},
		{"registers cut after a pc delta", 0, []byte{load | opPCDelta | opRegs, 0x04, 1}, 2, "trace: record 2: registers: unexpected EOF"},

		{"invalid kind 12", 0, []byte{12, 0, 0, 0}, 2, "trace: record 2: invalid kind 12"},
		{"invalid kind 15 with every flag", 0, []byte{0xff, 0, 0, 0}, 2, "trace: record 2: invalid kind 15"},
		{"taken flag on load", 0, []byte{load | opTaken, 0, 0}, 2, "trace: record 2: taken flag on memory kind load"},
		{"taken flag on store", 0, []byte{store | opTaken, 0, 0}, 2, "trace: record 2: taken flag on memory kind store"},
		{"base-value flag on branch", 0, []byte{br | opBaseValue, 0}, 2, "trace: record 2: base-value flag on control kind br"},
		{"base-value flag on jump", 0, []byte{byte(isa.KindJump) | opBaseValue, 0}, 2, "trace: record 2: base-value flag on control kind jmp"},
		{"base-value flag on call", 0, []byte{byte(isa.KindCall) | opBaseValue, 0}, 2, "trace: record 2: base-value flag on control kind call"},
		{"base-value flag on return", 0, []byte{byte(isa.KindReturn) | opBaseValue, 0}, 2, "trace: record 2: base-value flag on control kind ret"},
		{"taken flag on nop", 0, []byte{byte(isa.KindNop) | opTaken}, 2, "trace: record 2: payload flags 0x20 on compute kind nop"},
		{"base-value flag on nop", 0, []byte{byte(isa.KindNop) | opBaseValue}, 2, "trace: record 2: payload flags 0x80 on compute kind nop"},
		{"both flags on nop", 0, []byte{byte(isa.KindNop) | opTaken | opBaseValue}, 2, "trace: record 2: payload flags 0xa0 on compute kind nop"},
		{"taken flag on ialu", 0, []byte{ialu | opTaken}, 2, "trace: record 2: payload flags 0x20 on compute kind ialu"},
		{"base-value flag on ialu", 0, []byte{ialu | opBaseValue}, 2, "trace: record 2: payload flags 0x80 on compute kind ialu"},
		{"both flags on ialu with registers", 0, []byte{ialu | opTaken | opBaseValue | opRegs, 1, 2, 3}, 2, "trace: record 2: payload flags 0xa0 on compute kind ialu"},
		{"taken flag on imul", 0, []byte{byte(isa.KindIntMul) | opTaken}, 2, "trace: record 2: payload flags 0x20 on compute kind imul"},
		{"base-value flag on falu", 0, []byte{byte(isa.KindFPALU) | opBaseValue}, 2, "trace: record 2: payload flags 0x80 on compute kind falu"},
		{"taken flag on fmul", 0, []byte{byte(isa.KindFPMul) | opTaken}, 2, "trace: record 2: payload flags 0x20 on compute kind fmul"},
		{"both flags on fdiv", 0, []byte{byte(isa.KindFPDiv) | opTaken | opBaseValue}, 2, "trace: record 2: payload flags 0xa0 on compute kind fdiv"},

		{"pc delta overflows 64 bits", 0, []byte{ialu | opPCDelta, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}, 2, "trace: record 2: pc delta: binary: varint overflows a 64-bit integer"},
		{"address delta overflows 64 bits", 0, []byte{load, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0x00}, 2, "trace: record 2: address delta: binary: varint overflows a 64-bit integer"},
		{"address delta overflows at end of file", 0, []byte{load, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}, 2, "trace: record 2: address delta: binary: varint overflows a 64-bit integer"},
		{"target delta overflows 64 bits", 0, []byte{br, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, 2, "trace: record 2: target delta: binary: varint overflows a 64-bit integer"},

		{"offset 2^31", 0, []byte{load, 0x02, 0x80, 0x80, 0x80, 0x80, 0x10}, 2, "trace: record 2: offset 2147483648 outside int32"},
		{"offset -2^31-1", 0, []byte{load, 0x02, 0x81, 0x80, 0x80, 0x80, 0x10}, 2, "trace: record 2: offset -2147483649 outside int32"},
		{"offset -2^31 is in range", 3, []byte{load, 0x02, 0xff, 0xff, 0xff, 0xff, 0x0f}, 3, ""},
		{"offset 2^31-1 is in range", 3, []byte{load, 0x02, 0xfe, 0xff, 0xff, 0xff, 0x0f}, 3, ""},
	}
	dir := t.TempDir()
	for _, c := range cases {
		data := append(encodeWithCount(t, c.declared, corruptPrefix[:min(c.good, 2)]), c.tail...)
		path := filepath.Join(dir, strings.ReplaceAll(c.name, " ", "_")+FileExt)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		src, err := NewArena(0).Load(path)
		if err != nil {
			t.Errorf("%s: Load: %v", c.name, err)
			continue
		}
		for w := src.Window(); len(w) > 0; w = src.Window() {
			src.Advance(len(w))
		}
		got := ""
		if src.Err() != nil {
			got = src.Err().Error()
		}
		if got != c.err || src.Count() != c.good {
			t.Errorf("%s: replayed %d records, error %q; want %d, %q", c.name, src.Count(), got, c.good, c.err)
		}
	}
}

// TestHeaderErrorTexts pins the errors Load and ReadHeader return for a
// file the header parse rejects. Load returns the parse error as is;
// ReadHeader prefixes it with the path, which is how sweep's fallback
// reasons and the trace store's upload rejections name the file.
func TestHeaderErrorTexts(t *testing.T) {
	valid := encodeWithCount(t, 0, nil)
	version := bytes.Clone(valid)
	version[len(Magic)] = FormatVersion + 1
	head := []byte(Magic + "\x01")
	cases := []struct {
		name string
		data []byte
		err  string
	}{
		{"empty file", nil, "trace: reading magic: EOF"},
		{"magic without version", []byte(Magic), "trace: reading magic: unexpected EOF"},
		{"bad magic", []byte("NOPE\x01\x00"), `trace: bad magic "NOPE" (not a trace file)`},
		{"unknown version", version, "trace: unsupported format version 2 (reader speaks 1)"},
		{"no field count", head, "trace: corrupt header field count"},
		{"field count past the cap", append(head, 0x81, 0x80, 0x40), "trace: corrupt header field count"},
		{"field tag cut", append(head, 0x01), "trace: corrupt header field tag: EOF"},
		{"field tag cut mid-varint", append(head, 0x01, 0x80), "trace: corrupt header field tag: unexpected EOF"},
		{"field length cut", append(head, 0x01, tagBenchmark), "trace: corrupt header field length"},
		{"field length past the cap", append(head, 0x01, tagBenchmark, 0x81, 0x80, 0x40), "trace: corrupt header field length"},
		{"field payload cut", append(head, 0x01, tagBenchmark, 0x04, 'g', 'c'), "trace: truncated header field: unexpected EOF"},
		{"field payload missing", append(head, 0x01, tagBenchmark, 0x04), "trace: truncated header field: EOF"},
		{"empty seed", append(head, 0x01, tagSeed, 0x00), "trace: corrupt seed field"},
		{"seed cut mid-varint", append(head, 0x01, tagSeed, 0x01, 0x80), "trace: corrupt seed field"},
		{"instruction count past int64", append(head, 0x01, tagInsts, 0x0a, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01), "trace: corrupt instruction-count field"},
	}
	dir := t.TempDir()
	for _, c := range cases {
		path := filepath.Join(dir, strings.ReplaceAll(c.name, " ", "_")+FileExt)
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := NewArena(0).Load(path); err == nil || err.Error() != c.err {
			t.Errorf("%s: Load error %v, want %q", c.name, err, c.err)
		}
		if _, err := ReadHeader(path); err == nil || err.Error() != path+": "+c.err {
			t.Errorf("%s: ReadHeader error %v, want %q", c.name, err, path+": "+c.err)
		}
	}

	missing := filepath.Join(dir, "absent"+FileExt)
	if _, err := ReadHeader(missing); !os.IsNotExist(err) || err.Error() != "open "+missing+": no such file or directory" {
		t.Errorf("missing file: ReadHeader error %v", err)
	}
	path := filepath.Join(dir, "valid"+FileExt)
	want := Header{Benchmark: "gcc", Seed: 9, Insts: 3}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, want)
	if err != nil {
		t.Fatal(err)
	}
	w.Close() // flushes the header; no records follow it
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if h, err := ReadHeader(path); err != nil || h != want {
		t.Errorf("valid header: ReadHeader = %+v, %v; want %+v", h, err, want)
	}
}
