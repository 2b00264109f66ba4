package trace

import (
	"testing"
	"testing/quick"

	"waycache/internal/isa"
)

func TestXORHandleExactWithoutCarries(t *testing.T) {
	// When base + offset produces no carries (offset bits disjoint from
	// base bits), XOR equals ADD, so the handle is the true address.
	in := Inst{Kind: isa.KindLoad, BaseValue: 0x1000_0000, Offset: 0x40}
	in.Addr = in.BaseValue + uint64(int64(in.Offset))
	if in.XORHandle() != in.Addr {
		t.Fatalf("XORHandle = %#x, want %#x", in.XORHandle(), in.Addr)
	}
}

func TestXORHandleDiffersWithCarries(t *testing.T) {
	in := Inst{Kind: isa.KindLoad, BaseValue: 0xFFF8, Offset: 0x10}
	in.Addr = in.BaseValue + uint64(int64(in.Offset))
	if in.XORHandle() == in.Addr {
		t.Fatal("carry case should make XOR approximation differ from the address")
	}
}

func TestXORHandleNegativeOffset(t *testing.T) {
	in := Inst{Kind: isa.KindLoad, BaseValue: 0x2000, Offset: -8}
	in.Addr = in.BaseValue + uint64(int64(in.Offset))
	if in.Addr != 0x1FF8 {
		t.Fatalf("address arithmetic wrong: %#x", in.Addr)
	}
	// Handle is well defined (no panic, deterministic).
	se := uint64(int64(in.Offset))
	if in.XORHandle() != in.BaseValue^se {
		t.Fatal("handle of negative offset mismatch")
	}
}

func TestXORHandleProperty(t *testing.T) {
	// Property: handle equals address iff base AND sign-extended offset
	// share no set bits (no carries in the add).
	f := func(base uint64, off int32) bool {
		in := Inst{BaseValue: base, Offset: off}
		in.Addr = base + uint64(int64(off))
		se := uint64(int64(off))
		noCarry := base&se == 0
		return (in.XORHandle() == in.Addr) == noCarry || !noCarry
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestNextPC(t *testing.T) {
	br := Inst{PC: 0x400000, Kind: isa.KindBranch, Taken: true, Target: 0x400100}
	if br.NextPC() != 0x400100 {
		t.Fatalf("taken branch NextPC = %#x", br.NextPC())
	}
	br.Taken = false
	if br.NextPC() != 0x400000+isa.InstBytes {
		t.Fatalf("not-taken branch NextPC = %#x", br.NextPC())
	}
	alu := Inst{PC: 0x400000, Kind: isa.KindIntALU, Taken: true, Target: 0x123}
	if alu.NextPC() != 0x400000+isa.InstBytes {
		t.Fatal("non-control instruction must fall through even if Taken is set")
	}
}

func TestMemSource(t *testing.T) {
	src := NewMemSource([]Inst{{PC: 1}, {PC: 2}, {PC: 3}}, Header{})
	var got []uint64
	var in Inst
	for src.Next(&in) {
		got = append(got, in.PC)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("MemSource replay = %v", got)
	}
	if src.Next(&in) {
		t.Fatal("exhausted source returned true")
	}
	src.Reset()
	if !src.Next(&in) || in.PC != 1 {
		t.Fatal("Reset did not rewind")
	}
}

func TestLimit(t *testing.T) {
	src := NewMemSource(make([]Inst, 100), Header{})
	lim := NewLimit(src, 7)
	var in Inst
	n := 0
	for lim.Next(&in) {
		n++
	}
	if n != 7 {
		t.Fatalf("Limit yielded %d instructions, want 7", n)
	}
	if w := lim.Window(); len(w) != 0 {
		t.Fatalf("spent Limit exposes a %d-instruction window", len(w))
	}

	// Window is cut at the budget, and Next and Window/Advance consume
	// from one position.
	insts := make([]Inst, 100)
	for i := range insts {
		insts[i].PC = uint64(i)
	}
	base := NewMemSource(insts, Header{})
	lim = NewLimit(base, 10)
	if !lim.Next(&in) || in.PC != 0 {
		t.Fatalf("first Next = %d", in.PC)
	}
	w := lim.Window()
	if len(w) != 9 || w[0].PC != 1 {
		t.Fatalf("window after one Next: len %d, first PC %d; want 9 from PC 1", len(w), w[0].PC)
	}
	lim.Advance(4)
	if !lim.Next(&in) || in.PC != 5 {
		t.Fatalf("Next after Advance(4) = %d, want 5", in.PC)
	}
	if w := lim.Window(); len(w) != 4 || w[0].PC != 6 || w[3].PC != 9 {
		t.Fatalf("window = %v, want PCs 6..9", w)
	}
	lim.Advance(4)
	if w := lim.Window(); len(w) != 0 {
		t.Fatalf("window past budget has %d instructions", len(w))
	}
	if lim.Next(&in) {
		t.Fatal("Next past budget returned true")
	}
	if !base.Next(&in) || in.PC != 10 {
		t.Fatalf("underlying source resumes at PC %d, want 10", in.PC)
	}
}

func TestRepeat(t *testing.T) {
	src := &Repeat{Insts: []Inst{{PC: 1}, {PC: 2}}, Times: 3}
	var got []uint64
	var in Inst
	for src.Next(&in) {
		got = append(got, in.PC)
	}
	if len(got) != 6 {
		t.Fatalf("Repeat yielded %d instructions, want 6", len(got))
	}
	if got[0] != 1 || got[5] != 2 {
		t.Fatalf("sequence = %v", got)
	}
}

func TestRepeatForever(t *testing.T) {
	src := &Repeat{Insts: []Inst{{PC: 7}}}
	var in Inst
	for i := 0; i < 10000; i++ {
		if !src.Next(&in) || in.PC != 7 {
			t.Fatal("unbounded Repeat ended early")
		}
	}
}

func TestRepeatEmpty(t *testing.T) {
	src := &Repeat{}
	var in Inst
	if src.Next(&in) {
		t.Fatal("empty Repeat returned an instruction")
	}
}
