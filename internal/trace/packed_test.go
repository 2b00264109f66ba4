package trace

import (
	"math/rand"
	"path/filepath"
	"testing"
	"unsafe"

	"waycache/internal/isa"
)

func TestRecordIs24Bytes(t *testing.T) {
	if got := unsafe.Sizeof(record{}); got != 24 {
		t.Fatalf("packed record is %d bytes, want 24", got)
	}
}

// randomInsts draws n instructions over every kind. Most keep the trace
// grammar (payload only on the kind that carries it, BaseValue on the
// Addr - Offset invariant); the rest break it in one of the ways packing
// must escape: a base value off the invariant, control payload on a
// memory kind, memory payload on a control or compute kind, or a kind
// outside the isa.
func randomInsts(rng *rand.Rand, n int) []Inst {
	insts := make([]Inst, n)
	for i := range insts {
		in := Inst{
			PC:   rng.Uint64(),
			Kind: isa.Kind(rng.Intn(isa.NumKinds)),
			Dst:  isa.Reg(rng.Intn(256)), Src1: isa.Reg(rng.Intn(256)), Src2: isa.Reg(rng.Intn(256)),
		}
		switch {
		case in.Kind.IsMem():
			in.Addr, in.Offset = rng.Uint64(), int32(rng.Uint32())
			in.BaseValue = in.Addr - uint64(int64(in.Offset))
		case in.Kind.IsControl():
			in.Target, in.Taken = rng.Uint64(), rng.Intn(2) == 0
		}
		switch rng.Intn(12) {
		case 0:
			in.BaseValue = rng.Uint64()
		case 1:
			in.Target, in.Taken = rng.Uint64(), true
		case 2:
			in.Addr, in.Offset = rng.Uint64(), int32(rng.Uint32())
		case 3:
			in.Kind = isa.Kind(isa.NumKinds + rng.Intn(256-isa.NumKinds))
		}
		insts[i] = in
	}
	return insts
}

// TestMemSourcePackedRoundTrip replays random instructions through
// NewMemSource's packed records: Next, and Window/Advance in strides that
// straddle the expansion run, must give back every instruction unchanged,
// with Count and Remaining right at every step and Reset rewinding.
func TestMemSourcePackedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 3*expandRun + 77
	insts := randomInsts(rng, n)
	src := NewMemSource(insts, Header{})
	if len(src.t.esc) == 0 || len(src.t.esc) == n {
		t.Fatalf("%d of %d instructions escaped: the input must exercise both paths", len(src.t.esc), n)
	}
	check := func(what string, pos int) {
		t.Helper()
		if src.Count() != int64(pos) || src.Remaining() != int64(n-pos) {
			t.Fatalf("%s at %d: Count %d, Remaining %d", what, pos, src.Count(), src.Remaining())
		}
	}

	var in Inst
	for i := range insts {
		if !src.Next(&in) || in != insts[i] {
			t.Fatalf("Next %d: got %+v, want %+v", i, in, insts[i])
		}
		check("Next", i+1)
	}
	if src.Next(&in) || src.Window() != nil {
		t.Fatal("drained source still yields instructions")
	}
	src.Reset()
	src.Advance(len(src.Window()) / 2)
	src.Reset() // mid-window: the expanded window must rewind too
	check("Reset", 0)
	if w := src.Window(); w[0] != insts[0] {
		t.Fatalf("window after a mid-window Reset starts at %+v, want %+v", w[0], insts[0])
	}

	for _, stride := range []int{1, 3, 7, expandRun - 1, expandRun, expandRun + 1, 2*expandRun + 5} {
		src.Reset()
		check("Reset", 0)
		for pos := 0; pos < n; {
			w := src.Window()
			if len(w) == 0 {
				t.Fatalf("stride %d: window empty at %d of %d", stride, pos, n)
			}
			k := min(len(w), stride)
			for j := range w[:k] {
				if w[j] != insts[pos+j] {
					t.Fatalf("stride %d, window record %d: got %+v, want %+v", stride, pos+j, w[j], insts[pos+j])
				}
			}
			src.Advance(k)
			pos += k
			check("Advance", pos)
			if pos < n && stride%2 == 1 { // interleave Next on odd strides
				if !src.Next(&in) || in != insts[pos] {
					t.Fatalf("stride %d, interleaved Next %d: got %+v, want %+v", stride, pos, in, insts[pos])
				}
				pos++
				check("interleaved Next", pos)
			}
		}
		if src.Window() != nil {
			t.Fatalf("stride %d: window after the last record", stride)
		}
	}
}

// TestArenaEscapesExplicitBaseValue loads a capture whose records include
// explicit base values (Writer's opBaseValue): those records go to the
// escape table and replay unchanged, through Next and Window alike, with
// the escapes counted in ResidentBytes. Escaped instructions share one
// placeholder static and take no address.
func TestArenaEscapesExplicitBaseValue(t *testing.T) {
	insts := arenaInsts(3 * expandRun)
	for i := range insts {
		if i%100 == 7 {
			insts[i].BaseValue ^= 0xdead_0000 // off the Addr - Offset invariant
		}
	}
	path := filepath.Join(t.TempDir(), "esc.wct")
	writeTrace(t, path, Header{Insts: int64(len(insts))}, insts)

	a := NewArena(0)
	src, err := a.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(src.t.esc) != 8 {
		t.Fatalf("%d records escaped, want 8", len(src.t.esc))
	}
	got := drain(src)
	if len(got) != len(insts) {
		t.Fatalf("replayed %d records, want %d", len(got), len(insts))
	}
	for i := range got {
		if got[i] != insts[i] {
			t.Fatalf("Next record %d: got %+v, want %+v", i, got[i], insts[i])
		}
	}
	src.Reset()
	for pos := 0; pos < len(insts); {
		w := src.Window()
		for j := range w {
			if w[j] != insts[pos+j] {
				t.Fatalf("window record %d: got %+v, want %+v", pos+j, w[j], insts[pos+j])
			}
		}
		src.Advance(len(w))
		pos += len(w)
	}
	// One static per unescaped instruction (each has a PC of its own)
	// plus the escapes' shared one, an op per instruction, an address per
	// unescaped instruction plus the padding word, and each escape with
	// its position.
	n := int64(len(insts))
	if want := (n-8+1)*(recordBytes+addrBytes) + n*opBytes + 8*(instBytes+opBytes); a.ResidentBytes() != want {
		t.Fatalf("ResidentBytes %d, want %d", a.ResidentBytes(), want)
	}
}

func TestArenaResidentBytes(t *testing.T) {
	dir := t.TempDir()
	a := NewArena(5 * arenaInstsBytes(100) / 2) // room for two 100-record files, not three
	if a.ResidentBytes() != 0 {
		t.Fatalf("empty arena holds %d bytes", a.ResidentBytes())
	}
	for i, name := range []string{"a", "b", "c"} {
		path := filepath.Join(dir, name+FileExt)
		writeTrace(t, path, Header{Insts: 100}, arenaInsts(100))
		if _, err := a.Load(path); err != nil {
			t.Fatal(err)
		}
		files := min(i+1, 2) // the third load evicts the first
		if want := int64(files) * (100*24 + 100*4 + 101*8); a.ResidentBytes() != want {
			t.Fatalf("after %d loads: ResidentBytes %d, want %d", i+1, a.ResidentBytes(), want)
		}
	}
}

// sharedInsts draws n grammar-valid instructions from a handful of PCs,
// so the static table shares statics across them. Each PC is revisited
// with fields that differ one at a time: a branch taken and not taken to
// two targets, a return to many targets, a load and a store with
// different offsets and registers, compute kinds with different
// registers, and memory instructions with explicit base values (escapes)
// interleaved. Only the addresses vary freely.
func sharedInsts(rng *rand.Rand, n int) []Inst {
	const pc = 0x4000
	variants := []Inst{
		{PC: pc, Kind: isa.KindBranch, Taken: true, Target: pc + 0x40},
		{PC: pc, Kind: isa.KindBranch, Taken: false, Target: pc + 0x40},
		{PC: pc, Kind: isa.KindBranch, Taken: true, Target: pc - 0x80},
		{PC: pc, Kind: isa.KindJump, Taken: true, Target: pc + 0x40},
		{PC: pc + 4, Kind: isa.KindLoad, Dst: 3, Src1: 4, Offset: 8},
		{PC: pc + 4, Kind: isa.KindLoad, Dst: 3, Src1: 4, Offset: -8},
		{PC: pc + 4, Kind: isa.KindLoad, Dst: 5, Src1: 4, Offset: 8},
		{PC: pc + 4, Kind: isa.KindStore, Src1: 4, Src2: 3, Offset: 8},
		{PC: pc + 8, Kind: isa.KindIntALU, Dst: 1, Src1: 2, Src2: 3},
		{PC: pc + 8, Kind: isa.KindIntALU, Dst: 1, Src1: 3, Src2: 2},
		{PC: pc + 8, Kind: isa.KindIntMul, Dst: 1, Src1: 2, Src2: 3},
		{PC: pc + 8, Kind: isa.KindNop},
	}
	for t := uint64(0); t < 40; t++ {
		variants = append(variants, Inst{PC: pc + 12, Kind: isa.KindReturn, Taken: true, Target: 0x9000 + 16*t})
	}
	insts := make([]Inst, n)
	for i := range insts {
		in := variants[rng.Intn(len(variants))]
		if in.Kind.IsMem() {
			in.Addr = 0x10_0000 + uint64(rng.Intn(1<<16))*8
			in.BaseValue = in.Addr - uint64(int64(in.Offset))
			if rng.Intn(10) == 0 { // an explicit base value: escaped
				in.BaseValue ^= 0xbeef_0000
			}
		}
		insts[i] = in
	}
	return insts
}

// TestMemSourceSharedStatics replays a stream that revisits a few PCs
// with every keyed field varied, through both table builders (the
// arena's decode and NewMemSource's packing): every field must come back
// as it went in, through Next, through Window/Advance in strides that
// straddle the expansion run, and from a Reset in the middle of a window.
func TestMemSourceSharedStatics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 4*expandRun + 77
	insts := sharedInsts(rng, n)
	path := filepath.Join(t.TempDir(), "shared.wct")
	writeTrace(t, path, Header{Insts: n}, insts)
	loaded, err := NewArena(0).Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]*MemSource{"arena": loaded, "NewMemSource": NewMemSource(insts, Header{})} {
		if s, e := len(src.t.statics), len(src.t.esc); s > 60 || e == 0 || e == n {
			t.Fatalf("%s: %d statics and %d escapes for %d instructions: the input must share statics and escape some", name, s, e, n)
		}
		var in Inst
		for i := range insts {
			if !src.Next(&in) || in != insts[i] {
				t.Fatalf("%s: Next %d: got %+v, want %+v", name, i, in, insts[i])
			}
		}
		if src.Next(&in) {
			t.Fatalf("%s: drained source still yields instructions", name)
		}
		for _, stride := range []int{1, 3, 7, expandRun - 1, expandRun, expandRun + 1, 2*expandRun + 5} {
			// Start each pass from a Reset in the middle of a window.
			src.Reset()
			src.Advance(stride % len(src.Window()))
			src.Reset()
			for pos := 0; pos < n; {
				w := src.Window()
				k := min(len(w), stride)
				if k == 0 {
					t.Fatalf("%s, stride %d: window empty at %d of %d", name, stride, pos, n)
				}
				for j := range w[:k] {
					if w[j] != insts[pos+j] {
						t.Fatalf("%s, stride %d, record %d: got %+v, want %+v", name, stride, pos+j, w[j], insts[pos+j])
					}
				}
				src.Advance(k)
				pos += k
			}
			if src.Window() != nil {
				t.Fatalf("%s, stride %d: window after the last record", name, stride)
			}
		}
	}
}
