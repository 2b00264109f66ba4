package trace

// Packed records: the arena's resident form of an instruction.
//
// An Inst is 48 bytes, but a well-formed one carries at most one 64-bit
// payload word — Addr for memory kinds (BaseValue is implied as
// Addr - Offset), Target for control kinds, nothing for compute kinds —
// so the arena keeps each decoded instruction as a 24-byte record and
// expands records back into Insts only a fetch window at a time
// (MemSource). The rare instruction packing cannot hold (an explicit base
// value that breaks the Addr - Offset invariant, or an off-grammar Inst
// handed to NewMemSource) is kept whole in a per-entry escape table that
// the record indexes.

import (
	"unsafe"

	"waycache/internal/isa"
)

// record is one packed instruction. It has four fields so the compiler
// keeps a whole record in registers while unpacking it.
type record struct {
	pc uint64
	// payload is Addr for memory kinds and Target for control kinds; for
	// an escaped record it is the instruction's index in the escape table.
	payload uint64
	off     int32
	// meta holds four bytes, low to high: the kind byte — the isa.Kind in
	// its low nibble, the rec* flags in its high one — then Dst, Src1 and
	// Src2.
	meta uint32
}

// Kind-byte flags: how the rest of a record reads.
const (
	recKindMask = 0x0f
	recTaken    = 0x10 // control transfer taken
	recMem      = 0x20 // memory kind: payload is Addr, BaseValue is Addr - off
	recEscape   = 0x40 // the instruction is escape-table entry payload
	recFlags    = 0xf0
)

// recordBytes and instBytes are the resident sizes of a packed record
// and of an escaped instruction.
const (
	recordBytes = int64(unsafe.Sizeof(record{}))
	instBytes   = int64(unsafe.Sizeof(Inst{}))
)

// packMeta builds a record's meta word from its kind byte and registers.
func packMeta(kind byte, dst, src1, src2 isa.Reg) uint32 {
	return uint32(kind) | uint32(dst)<<8 | uint32(src1)<<16 | uint32(src2)<<24
}

// unpack writes the instructions recs pack into out[:len(recs)], field
// by field; esc is the escape table the records were packed against.
// Kind and the registers are adjacent bytes in both forms, so they go out
// as one store. It is the one expansion loop: MemSource runs it over a
// window of records, and inst over one.
//
//wclint:hotpath
func unpack(recs []record, esc []Inst, out []Inst) {
	out = out[:len(recs)]
	for i, r := range recs {
		in := &out[i]
		if r.meta&recEscape != 0 {
			*in = esc[r.payload]
			continue
		}
		addr := r.payload & -uint64(r.meta&recMem>>5) // Addr for memory kinds, else 0
		regs := r.meta &^ recFlags
		in.PC = r.pc
		in.Kind, in.Dst, in.Src1, in.Src2 = isa.Kind(regs), isa.Reg(regs>>8), isa.Reg(regs>>16), isa.Reg(regs>>24)
		in.Addr = addr
		in.BaseValue = addr - uint64(r.off)
		in.Offset = r.off
		in.Taken = r.meta&recTaken != 0
		in.Target = r.payload ^ addr
	}
}

// inst writes the instruction r packs into *out.
//
//wclint:hotpath
func (r record) inst(esc []Inst, out *Inst) {
	unpack([]record{r}, esc, unsafe.Slice(out, 1))
}

// pack returns the record for in, appending in to the escape table esc
// (and returning the grown table) when the record cannot reproduce it
// exactly.
func pack(in *Inst, esc []Inst) (record, []Inst) {
	kind, payload := byte(in.Kind)&recKindMask, in.Target
	if in.Kind.IsMem() {
		kind |= recMem
		payload = in.Addr
	}
	if in.Taken {
		kind |= recTaken
	}
	r := record{pc: in.PC, payload: payload, off: in.Offset, meta: packMeta(kind, in.Dst, in.Src1, in.Src2)}
	var got Inst
	if r.inst(nil, &got); got != *in {
		r = record{pc: in.PC, payload: uint64(len(esc)), meta: recEscape}
		esc = append(esc, *in)
	}
	return r, esc
}
