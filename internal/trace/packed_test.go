package trace

import (
	"math"
	"math/rand"
	"path/filepath"
	"slices"
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
// NewMemSource's packed records: Window/Advance in strides that straddle
// the expansion run must give back every instruction unchanged,
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

	if got := drain(src); !slices.Equal(got, insts) {
		t.Fatalf("fresh replay differs from the packed instructions")
	}
	check("drain", n)
	if src.Window() != nil {
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
		}
		if src.Window() != nil {
			t.Fatalf("stride %d: window after the last record", stride)
		}
	}
}

// TestArenaEscapesExplicitBaseValue loads a capture whose records include
// explicit base values (Writer's opBaseValue): those records go to the
// escape table and replay unchanged, from a fresh source and after Reset, with
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
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], insts[i])
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
	// plus the escapes' shared one, each with its nextMem and nextFixed
	// entries, plus the closing ones. The first escape's static is
	// numbered in order, so it continues the first run; each later one is
	// a run of its own and starts another after it, then the terminating
	// run. Each unescaped instruction's address is a first visit past 32
	// KiB: a sentinel delta and a wide word. Then each escape with its
	// position.
	n := int64(len(insts))
	statics := n - 8 + 1
	if want := statics*recordBytes + 2*(statics+1)*nextMemBytes + (1+2*7+1)*runBytes + (n-8)*(deltaBytes+wideBytes) + 8*escBytes; a.ResidentBytes() != want {
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
		if want := int64(files) * (100*24 + 2*101*4 + 2*8 + 100*2 + 100*8); a.ResidentBytes() != want {
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
// as it went in, from a fresh source, through Window/Advance in strides
// that straddle the expansion run, and from a Reset in the middle of a
// window.
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
		if got := drain(src); !slices.Equal(got, insts) {
			t.Fatalf("%s: fresh replay differs from the input", name)
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

// deltaEdges are the steps the edge load of deltaEdgeInsts takes, one an
// iteration, from a first visit at 2^64 - 8: every edge of the 2-byte
// delta range (-32768 is the sentinel itself and must go wide), and
// steps that wrap past 2^64 and back. They sum to 0, so each pass over
// them starts from the same address.
var deltaEdges = []int64{0, 1, -1, 32767, -32767, -32768, 32768, -32769, 32769, 16, -16}

// deltaEdgeInsts returns iters iterations of a loop whose memory statics
// cover the address deltas' edges. Each iteration runs an ALU op, then:
//   - edge, a load stepping through deltaEdges;
//   - low, a load whose first visit, at 0x40, is a narrow delta from 0;
//   - stack, a load walking down from near the top of the stack;
//   - heap, a store walking up through the heap, interleaved with stack;
//   - hop, a load alternating between the stack and the heap, so every
//     visit is wide;
//
// and ends with a taken branch back. Each address keeps the Addr - Offset
// invariant, so nothing escapes.
func deltaEdgeInsts(iters int) []Inst {
	const pc = 0x4000
	mem := func(i int, kind isa.Kind, off int32, addr uint64) Inst {
		return Inst{PC: pc + uint64(i)*isa.InstBytes, Kind: kind, Dst: 5, Src1: 6, Addr: addr, BaseValue: addr - uint64(int64(off)), Offset: off}
	}
	edge := uint64(1<<64 - 8)
	var insts []Inst
	for it := range iters {
		edge += uint64(deltaEdges[it%len(deltaEdges)])
		hop := uint64(0x7fff_ffff_e000)
		if it%2 == 1 {
			hop = 0x1000_8000
		}
		insts = append(insts,
			Inst{PC: pc, Kind: isa.KindIntALU, Dst: 1, Src1: 2, Src2: 3},
			mem(1, isa.KindLoad, 8, edge),
			mem(2, isa.KindLoad, 0, 0x40+8*uint64(it)),
			mem(3, isa.KindLoad, -16, 0x7fff_ffff_f000-16*uint64(it)),
			mem(4, isa.KindStore, 24, 0x1000_0000+64*uint64(it)),
			mem(5, isa.KindLoad, 4, hop),
			Inst{PC: pc + 6*isa.InstBytes, Kind: isa.KindBranch, Taken: true, Target: pc},
		)
	}
	return insts
}

// TestMemSourceAddressDeltas replays deltaEdgeInsts through both table
// builders. The table must hold exactly the deltas and wide words an
// independent reading of the stream gives: each memory instruction's
// Addr minus its static's previous one (0 before the first), wide unless
// it lies in -32767..32767. Replay must give back every instruction
// from a fresh source, and through Window/Advance in every stride from 1 to
// past two expansion runs, each pass after a Reset in the middle of a
// window that has already moved the statics' latest addresses.
func TestMemSourceAddressDeltas(t *testing.T) {
	insts := deltaEdgeInsts(3*len(deltaEdges) + 2*expandRun/7)
	n := len(insts)
	var wantDeltas []int16
	var wantWide []uint64
	prev := map[uint64]uint64{} // each memory static has a PC of its own
	for _, in := range insts {
		if !in.Kind.IsMem() {
			continue
		}
		d := int64(in.Addr - prev[in.PC])
		prev[in.PC] = in.Addr
		if d < -32767 || d > 32767 {
			wantDeltas, wantWide = append(wantDeltas, math.MinInt16), append(wantWide, in.Addr)
		} else {
			wantDeltas = append(wantDeltas, int16(d))
		}
	}

	path := filepath.Join(t.TempDir(), "deltas.wct")
	writeTrace(t, path, Header{Insts: int64(n)}, insts)
	loaded, err := NewArena(0).Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]*MemSource{"arena": loaded, "NewMemSource": NewMemSource(insts, Header{})} {
		if len(src.t.esc) != 0 || !slices.Equal(src.t.deltas, wantDeltas) || !slices.Equal(src.t.wide, wantWide) {
			t.Fatalf("%s: %d escapes, deltas %v, wide %#x; want no escapes, deltas %v, wide %#x",
				name, len(src.t.esc), src.t.deltas, src.t.wide, wantDeltas, wantWide)
		}
		if got := drain(src); !slices.Equal(got, insts) {
			t.Fatalf("%s: fresh replay differs from the input", name)
		}
		for stride := 1; stride <= 2*expandRun+5; stride++ {
			// Part of a pass first, ending inside a window, then Reset.
			src.Reset()
			for part := stride * 7 % n; part > 0; {
				k := min(len(src.Window()), stride, part)
				src.Advance(k)
				part -= k
			}
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

// TestArenaWorstCaseBytes pins what the two worst cases of the resident
// form cost. Random addresses defeat the deltas: each costs a sentinel
// delta and a wide word, 10 bytes against 8 for a whole address. And a
// stream that never continues a run, here a branch to itself, costs a
// run, 8 bytes, per instruction.
func TestArenaWorstCaseBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const body, iters = 64, 20
	var random []Inst
	for range iters {
		for i := range body {
			addr := rng.Uint64()
			random = append(random, Inst{PC: 0x1000 + uint64(i)*isa.InstBytes, Kind: isa.KindLoad, Addr: addr, BaseValue: addr})
		}
	}
	self := make([]Inst, 1000)
	for i := range self {
		self[i] = Inst{PC: 0x2000, Kind: isa.KindBranch, Taken: true, Target: 0x2000}
	}
	for _, c := range []struct {
		name  string
		insts []Inst
		want  int64
	}{
		// The body's statics and their nextMem and nextFixed entries, one
		// run per iteration and the terminating run, and a sentinel delta
		// and a wide word per load.
		{"random addresses", random, body*recordBytes + 2*(body+1)*nextMemBytes + (iters+1)*runBytes + body*iters*(deltaBytes+wideBytes)},
		// One static and its nextMem and nextFixed entries, and a run per
		// instruction and the terminating run.
		{"no runs", self, recordBytes + 4*nextMemBytes + (1000+1)*runBytes},
	} {
		path := filepath.Join(t.TempDir(), "worst.wct")
		writeTrace(t, path, Header{Insts: int64(len(c.insts))}, c.insts)
		a := NewArena(0)
		src, err := a.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := a.ResidentBytes(); got != c.want {
			t.Errorf("%s: ResidentBytes %d (%.2f B/inst), want %d", c.name, got, float64(got)/float64(len(c.insts)), c.want)
		}
		if got := drain(src); !slices.Equal(got, c.insts) {
			t.Errorf("%s: replay differs from the stream", c.name)
		}
	}
}
