package traceconv

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"waycache/internal/isa"
	"waycache/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden .wct fixtures")

func fixture(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "traceconv", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func convert(t *testing.T, format string, input []byte, opts Options) ([]byte, Stats) {
	t.Helper()
	imp, err := ByName(format)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	st, err := Convert(imp, bytes.NewReader(input), &out, opts)
	if err != nil {
		t.Fatalf("%s convert: %v", format, err)
	}
	return out.Bytes(), st
}

func decode(t *testing.T, wct []byte) (trace.Header, []trace.Inst) {
	t.Helper()
	r, err := trace.NewReader(bytes.NewReader(wct))
	if err != nil {
		t.Fatal(err)
	}
	var insts []trace.Inst
	var in trace.Inst
	for r.Next(&in) {
		insts = append(insts, in)
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	return r.Header(), insts
}

// TestGoldenRoundTrips converts each checked-in sample and requires the
// output bytes to match the checked-in golden exactly: the converters are
// part of the determinism contract (same input ⇒ same hash everywhere).
func TestGoldenRoundTrips(t *testing.T) {
	cases := []struct{ format, in, golden string }{
		{"lackey", "lackey.txt", "lackey.golden.wct"},
		{"drcachesim", "drcachesim.csv", "drcachesim.golden.wct"},
		{"champsim", "champsim.bin", "champsim.golden.wct"},
	}
	for _, c := range cases {
		t.Run(c.format, func(t *testing.T) {
			got, st := convert(t, c.format, fixture(t, c.in), Options{Benchmark: "fixture"})
			if st.Dropped != 0 {
				t.Fatalf("clean fixture dropped %d records (%s)", st.Dropped, st.DropSummary())
			}
			goldenPath := filepath.Join("testdata", "traceconv", c.golden)
			if *update {
				if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("converted %s differs from golden %s (run go test ./internal/traceconv -update after intentional changes)", c.in, c.golden)
			}
			h, _ := decode(t, got)
			if h.Benchmark != "fixture" || h.Seed != 0 {
				t.Fatalf("header %+v: want benchmark fixture, seed 0", h)
			}
		})
	}
}

func kinds(insts []trace.Inst) []isa.Kind {
	out := make([]isa.Kind, len(insts))
	for i := range insts {
		out[i] = insts[i].Kind
	}
	return out
}

func TestLackeyReconciliation(t *testing.T) {
	wct, st := convert(t, "lackey", fixture(t, "lackey.txt"), Options{Benchmark: "fixture"})
	h, insts := decode(t, wct)
	want := []isa.Kind{
		isa.KindIntALU, // 1000: bare fetch, sequential
		isa.KindLoad,   // 1004 L
		isa.KindStore,  // 1008 S
		// 100c M expands to load+store, and the 100c→2000 discontinuity
		// synthesizes a taken jump.
		isa.KindLoad, isa.KindStore, isa.KindJump,
		isa.KindIntALU, // 2000
		isa.KindIntALU, // 2004: final flush has no next PC
	}
	got := kinds(insts)
	if len(got) != len(want) {
		t.Fatalf("got kinds %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("inst %d: kind %v, want %v (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Insts != int64(len(want)) {
		t.Fatalf("header declares %d insts, want %d", h.Insts, len(want))
	}
	jump := insts[5]
	if !jump.Taken || jump.Target != 0x2000 || jump.PC != 0x100c {
		t.Fatalf("synthesized jump %+v, want taken 100c→2000", jump)
	}
	if insts[1].Addr != 0x8000 || insts[1].BaseValue != 0x8000 || insts[1].Offset != 0 {
		t.Fatalf("load payload %+v: want Addr=BaseValue=0x8000, Offset 0", insts[1])
	}
	if st.Records != 9 || st.Insts != 8 {
		t.Fatalf("stats %+v: want 9 records, 8 insts", st)
	}
}

func TestDrcachesimReconciliation(t *testing.T) {
	wct, _ := convert(t, "drcachesim", fixture(t, "drcachesim.csv"), Options{Benchmark: "fixture"})
	_, insts := decode(t, wct)
	want := []isa.Kind{
		isa.KindIntALU, // 0x1000
		isa.KindLoad,   // 0x1004
		isa.KindStore,  // 0x1008
		isa.KindBranch, // 0x100c taken → 0x2000
		isa.KindBranch, // 0x2000 not taken
		isa.KindIntALU, // 0x2004
	}
	got := kinds(insts)
	if len(got) != len(want) {
		t.Fatalf("got kinds %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("inst %d: kind %v, want %v", i, got[i], want[i])
		}
	}
	if b := insts[3]; !b.Taken || b.Target != 0x2000 {
		t.Fatalf("taken branch %+v, want target 0x2000", b)
	}
	if b := insts[4]; b.Taken || b.Target != 0 {
		t.Fatalf("not-taken branch %+v", b)
	}
}

func TestChampsimReconciliation(t *testing.T) {
	wct, st := convert(t, "champsim", fixture(t, "champsim.bin"), Options{Benchmark: "fixture"})
	_, insts := decode(t, wct)
	want := []isa.Kind{isa.KindIntALU, isa.KindLoad, isa.KindBranch, isa.KindStore}
	got := kinds(insts)
	if len(got) != len(want) {
		t.Fatalf("got kinds %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("inst %d: kind %v, want %v", i, got[i], want[i])
		}
	}
	// The taken branch's target comes from one-record lookahead.
	if b := insts[2]; !b.Taken || b.Target != 0x2000 {
		t.Fatalf("branch %+v, want lookahead target 0x2000", b)
	}
	if ld := insts[1]; ld.Addr != 0x8000 || ld.Dst != mapReg(5) || ld.Src1 != mapReg(6) {
		t.Fatalf("load %+v: wrong payload or register mapping", ld)
	}
	if st.Records != 4 || st.Insts != 4 {
		t.Fatalf("stats %+v: want 4 records, 4 insts", st)
	}
}

func TestMapReg(t *testing.T) {
	if mapReg(0) != isa.RegZero {
		t.Fatal("register 0 must stay the zero register")
	}
	for r := 1; r < 256; r++ {
		m := mapReg(uint8(r))
		if m == isa.RegZero || int(m) >= isa.NumRegs {
			t.Fatalf("mapReg(%d) = %d escapes the register file", r, m)
		}
	}
	if mapReg(1) != 1 || mapReg(63) != 63 {
		t.Fatal("in-range registers must map to themselves")
	}
}

func TestStrictVsLossy(t *testing.T) {
	t.Run("champsim-truncated", func(t *testing.T) {
		torn := append(fixture(t, "champsim.bin"), 0xde, 0xad)
		imp, _ := ByName("champsim")
		_, err := imp.Read(bytes.NewReader(torn), Options{}, func(*trace.Inst) error { return nil })
		if err == nil || !strings.Contains(err.Error(), "truncated-record") {
			t.Fatalf("strict mode accepted a torn record: %v", err)
		}
		var out bytes.Buffer
		st, err := Convert(imp, bytes.NewReader(torn), &out, Options{Lossy: true})
		if err != nil {
			t.Fatal(err)
		}
		if st.Dropped != 1 || st.Reasons["truncated-record"] != 1 || st.Insts != 4 {
			t.Fatalf("lossy stats %+v (%s)", st, st.DropSummary())
		}
	})

	t.Run("lackey-malformed", func(t *testing.T) {
		in := []byte("I  1000,4\nI  garbage\nI  1004,4\n")
		imp, _ := ByName("lackey")
		_, err := imp.Read(bytes.NewReader(in), Options{}, func(*trace.Inst) error { return nil })
		if err == nil || !strings.Contains(err.Error(), "malformed-line") {
			t.Fatalf("strict mode accepted garbage: %v", err)
		}
		var out bytes.Buffer
		st, err := Convert(imp, bytes.NewReader(in), &out, Options{Lossy: true})
		if err != nil {
			t.Fatal(err)
		}
		if st.Dropped != 1 || st.Insts != 2 {
			t.Fatalf("lossy stats %+v", st)
		}
	})

	t.Run("lackey-ref-before-instruction", func(t *testing.T) {
		in := []byte(" L 8000,8\nI  1000,4\n")
		imp, _ := ByName("lackey")
		if _, err := imp.Read(bytes.NewReader(in), Options{}, func(*trace.Inst) error { return nil }); err == nil {
			t.Fatal("strict mode accepted a ref before any instruction")
		}
		var out bytes.Buffer
		st, err := Convert(imp, bytes.NewReader(in), &out, Options{Lossy: true})
		if err != nil {
			t.Fatal(err)
		}
		if st.Reasons["ref-before-instruction"] != 1 || st.Insts != 1 {
			t.Fatalf("lossy stats %+v (%s)", st, st.DropSummary())
		}
	})

	t.Run("drcachesim-branch-mismatch", func(t *testing.T) {
		in := []byte("ifetch,0x1000\nbranch,0x9999,0x2000,1\n")
		imp, _ := ByName("drcachesim")
		if _, err := imp.Read(bytes.NewReader(in), Options{}, func(*trace.Inst) error { return nil }); err == nil {
			t.Fatal("strict mode accepted a branch for the wrong pc")
		}
		var out bytes.Buffer
		st, err := Convert(imp, bytes.NewReader(in), &out, Options{Lossy: true})
		if err != nil {
			t.Fatal(err)
		}
		if st.Reasons["branch-pc-mismatch"] != 1 {
			t.Fatalf("lossy stats %+v (%s)", st, st.DropSummary())
		}
	})
}

func TestMaxInsts(t *testing.T) {
	imp, _ := ByName("lackey")
	var out bytes.Buffer
	st, err := Convert(imp, bytes.NewReader(fixture(t, "lackey.txt")), &out, Options{Benchmark: "b", MaxInsts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.Insts != 3 {
		t.Fatalf("emitted %d insts, want 3", st.Insts)
	}
	h, insts := decode(t, out.Bytes())
	if h.Insts != 3 || len(insts) != 3 {
		t.Fatalf("output holds %d/%d insts, want 3", h.Insts, len(insts))
	}
}

func TestConvertDeterministic(t *testing.T) {
	for _, c := range []struct{ format, in string }{
		{"lackey", "lackey.txt"}, {"drcachesim", "drcachesim.csv"}, {"champsim", "champsim.bin"},
	} {
		a, _ := convert(t, c.format, fixture(t, c.in), Options{Benchmark: "x"})
		b, _ := convert(t, c.format, fixture(t, c.in), Options{Benchmark: "x"})
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: two conversions of the same input differ", c.format)
		}
	}
}

// TestExportImportRoundTrip pushes a crafted internal stream out through
// each exporter and back through the matching importer. Formats carry
// different information, so the invariants differ: counts are preserved
// 1:1 (not-taken branches degrade to ALU ops, which occupy the same fetch
// slot), PCs and data addresses survive exactly, and taken control
// transfers survive as control (branch or synthesized jump).
func TestExportImportRoundTrip(t *testing.T) {
	src := []trace.Inst{
		{PC: 0x1000, Kind: isa.KindIntALU, Dst: 1, Src1: 2},
		{PC: 0x1004, Kind: isa.KindLoad, Dst: 3, Src1: 4, Addr: 0x8000, BaseValue: 0x8000},
		{PC: 0x1008, Kind: isa.KindStore, Src1: 5, Addr: 0x8008, BaseValue: 0x8008},
		{PC: 0x100c, Kind: isa.KindBranch, Taken: true, Target: 0x2000},
		{PC: 0x2000, Kind: isa.KindBranch, Taken: false},
		{PC: 0x2004, Kind: isa.KindIntALU},
	}
	for _, format := range Names() {
		t.Run(format, func(t *testing.T) {
			exp, err := ExporterFor(format)
			if err != nil {
				t.Fatal(err)
			}
			var ext bytes.Buffer
			n, err := exp(&ext, trace.NewMemSource(src, trace.Header{}), 0)
			if err != nil || n != int64(len(src)) {
				t.Fatalf("export wrote %d insts, err %v", n, err)
			}
			wct, _ := convert(t, format, ext.Bytes(), Options{Benchmark: "rt"})
			_, insts := decode(t, wct)
			if len(insts) != len(src) {
				t.Fatalf("round trip %d insts, want %d (kinds %v)", len(insts), len(src), kinds(insts))
			}
			for i := range src {
				if insts[i].PC != src[i].PC {
					t.Fatalf("inst %d PC %#x, want %#x", i, insts[i].PC, src[i].PC)
				}
				if src[i].Kind.IsMem() && (insts[i].Kind != src[i].Kind || insts[i].Addr != src[i].Addr) {
					t.Fatalf("inst %d: %+v does not preserve mem ref %+v", i, insts[i], src[i])
				}
			}
			if !insts[3].Kind.IsControl() || !insts[3].Taken || insts[3].Target != 0x2000 {
				t.Fatalf("taken transfer lost: %+v", insts[3])
			}
		})
	}
}
