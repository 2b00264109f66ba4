package trace

// The static-instruction table: the arena's resident form of a capture.
//
// A capture revisits a few dozen to a few thousand distinct static
// instructions many thousands of times, and all a revisit can change is a
// memory op's address. So a decoded capture is kept as a table of three
// parts: its distinct records with the memory payload cleared (statics),
// one 4-byte static index per dynamic instruction (ops), and the Addr of
// each memory instruction in stream order (addrs). Everything else an
// instruction carries — kind, registers, offset, branch direction,
// target — belongs to its static: taken and not-taken branches, and
// each distinct return target, are separate statics. MemSource expands
// the table back into Insts a fetch window at a time, so a suite capture
// costs about 7 bytes per instruction instead of a 48-byte Inst.
//
// A record is also the decoder's output. An Inst is 48 bytes, but a
// well-formed one carries at most one 64-bit payload word — Addr for
// memory kinds (BaseValue is implied as Addr - Offset), Target for
// control kinds, nothing for compute kinds — so a record is 24 bytes.
// The rare instruction a record cannot hold (an explicit base value that
// breaks the Addr - Offset invariant, or an off-grammar Inst handed to
// NewMemSource) is escaped: the decoder's record indexes it in an escape
// table, and the static table keeps it whole with its position.

import (
	"math/bits"
	"slices"
	"unsafe"

	"waycache/internal/isa"
)

// record is one packed instruction. It has four fields so the compiler
// keeps a whole record in registers while expanding it.
type record struct {
	pc uint64
	// payload is Addr for memory kinds and Target for control kinds; for
	// an escaped record it is the instruction's index in the escape table.
	// A memory static's payload is 0: its addresses are the table's.
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

// The resident sizes of a table's parts: a static record, an op, an
// address and an escaped instruction.
const (
	recordBytes = int64(unsafe.Sizeof(record{}))
	opBytes     = 4
	addrBytes   = 8
	instBytes   = int64(unsafe.Sizeof(Inst{}))
)

// packMeta builds a record's meta word from its kind byte and registers.
func packMeta(kind byte, dst, src1, src2 isa.Reg) uint32 {
	return uint32(kind) | uint32(dst)<<8 | uint32(src1)<<16 | uint32(src2)<<24
}

// split returns the static unescaped record r is an instance of and the
// address it carries: a memory record's Addr moves out of the payload,
// any other record is its own static and carries none.
func (r record) split() (record, uint64) {
	mem := uint64(r.meta&recMem) >> 5
	addr := r.payload & -mem
	r.payload &= mem - 1
	return r, addr
}

// hash mixes every field of r, so that statics differing only in branch
// direction, target, offset or registers spread over the intern slots.
func (r record) hash() uint64 {
	return (r.pc ^ bits.RotateLeft64(r.payload, 29) ^ uint64(r.meta)<<32 ^ uint64(uint32(r.off))) * 0x9e3779b97f4a7c15
}

// table is a capture in its resident form. It is read-only once built,
// so any number of MemSources replay it at once.
type table struct {
	statics []record
	ops     []uint32 // the static of each instruction
	// addrs is the Addr of each memory instruction, then one padding
	// word, so expand reads an address word for every instruction
	// without running off the end.
	addrs []uint64
	// esc holds the escaped instructions in stream order, and escAt the
	// position of each in ops. Their ops index escapeStatic.
	esc   []Inst
	escAt []uint32
}

// escapeStatic is the static every escaped instruction is an instance
// of: it takes no address, and expand's output for it is overwritten
// with the escaped instruction.
var escapeStatic = record{meta: recEscape}

// bytes is the memory the table occupies.
func (t *table) bytes() int64 {
	return int64(len(t.statics))*recordBytes + int64(len(t.ops))*opBytes +
		int64(len(t.addrs))*addrBytes + int64(len(t.esc))*(instBytes+opBytes)
}

// expand writes the instructions ops index in statics into out[:len(ops)],
// taking each memory instruction's address from addrs in turn, and
// returns how many addresses it took. Every instruction reads the next
// address word, masks it by its static's memory flag and advances past it
// by that flag, so the loop has no branch at all; escaped instructions
// are the caller's to write over their placeholders. Kind and the
// registers are adjacent bytes in both forms, so they go out as one
// store. It is the one expansion loop: MemSource runs it over a window of
// ops, and inst over one record.
//
//wclint:hotpath
func expand(statics []record, ops []uint32, addrs []uint64, out []Inst) int {
	out = out[:len(ops)]
	a := 0
	for i, op := range ops {
		r := statics[op]
		in := &out[i]
		mem := r.meta & recMem >> 5
		addr := addrs[a] & -uint64(mem) // Addr for memory kinds, else 0
		a += int(mem)
		regs := r.meta &^ recFlags
		in.PC = r.pc
		in.Kind, in.Dst, in.Src1, in.Src2 = isa.Kind(regs), isa.Reg(regs>>8), isa.Reg(regs>>16), isa.Reg(regs>>24)
		in.Addr = addr
		in.BaseValue = addr - uint64(r.off)
		in.Offset = r.off
		in.Taken = r.meta&recTaken != 0
		in.Target = r.payload
	}
	return a
}

// inst writes the instruction r packs into *out; esc is the escape table
// an escaped record indexes.
//
//wclint:hotpath
func (r record) inst(esc []Inst, out *Inst) {
	if r.meta&recEscape != 0 {
		*out = esc[r.payload]
		return
	}
	static, addr := r.split()
	expand([]record{static}, []uint32{0}, []uint64{addr}, unsafe.Slice(out, 1))
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

// tableBuilder builds a table from a stream of records, interning each
// record's static. Most instructions are the static after their
// predecessor's — straight-line code is first met, and so numbered, in
// order — so that guess is tried first (follow); the rest go through an
// open-addressed hash of static indexes (addOne).
type tableBuilder struct {
	table
	last  uint32   // the static of the latest instruction
	slots []uint32 // static index + 1; 0 marks an empty slot
	shift uint     // 64 - log2(len(slots)): hash bits that pick a slot
}

// internSlots is the initial slot count, past twice the statics of any
// suite capture.
const internSlots = 4096

// newTableBuilder returns a builder sized for n instructions. Streams are
// mostly not memory instructions, so addrs starts at half of n and grows
// past it only for one that is.
func newTableBuilder(n int) *tableBuilder {
	return &tableBuilder{
		table: table{ops: make([]uint32, 0, n), addrs: make([]uint64, 0, n/2+1)},
		slots: make([]uint32, internSlots),
		shift: 64 - uint(bits.TrailingZeros(internSlots)),
	}
}

// add appends the instructions recs pack to the table; esc is the escape
// table escaped records index. follow takes each run of records whose
// statics come in order, in a loop without calls, and addOne the record
// that ends the run.
func (b *tableBuilder) add(recs []record, esc []Inst) {
	b.ops = slices.Grow(b.ops, len(recs))
	b.addrs = slices.Grow(b.addrs, len(recs))
	for len(recs) > 0 {
		recs = recs[b.follow(recs):]
		if len(recs) > 0 {
			b.addOne(recs[0], esc)
			recs = recs[1:]
		}
	}
}

// follow appends the leading records of recs that are instances of the
// statics after the latest instruction's, in order, and returns how many
// it appended. It stops at an escaped record or any other static. The
// table has room for all of recs, so the loop makes no call: each record
// writes its payload to the next address slot and keeps it there only if
// it is a memory record.
func (b *tableBuilder) follow(recs []record) int {
	statics := b.statics
	ops := b.ops[len(b.ops) : len(b.ops)+len(recs)]
	addrs := b.addrs[len(b.addrs) : len(b.addrs)+len(recs)]
	s := b.last + 1 // the static the next record must be
	i, a := 0, 0
	for ; i < len(recs); i, s = i+1, s+1 {
		r := recs[i]
		mem := uint64(r.meta&recMem) >> 5
		addrs[a] = r.payload
		r.payload &= mem - 1 // a memory static's payload is 0
		if r.meta&recEscape != 0 || int(s) >= len(statics) || statics[s] != r {
			break
		}
		a += int(mem)
		ops[i] = s
	}
	b.ops, b.addrs, b.last = b.ops[:len(b.ops)+i], b.addrs[:len(b.addrs)+a], s-1
	return i
}

// addOne appends the instruction r packs, escaped or an instance of any
// static.
func (b *tableBuilder) addOne(r record, esc []Inst) {
	if r.meta&recEscape != 0 {
		b.esc = append(b.esc, esc[r.payload])
		b.escAt = append(b.escAt, uint32(len(b.ops)))
		r = escapeStatic
	}
	static, addr := r.split()
	if static.meta&recMem != 0 {
		b.addrs = append(b.addrs, addr)
	}
	b.last = b.intern(static)
	b.ops = append(b.ops, b.last)
}

// intern returns the index of static r, adding it when it is new.
func (b *tableBuilder) intern(r record) uint32 {
	mask := uint64(len(b.slots) - 1)
	i := r.hash() >> b.shift
	for ; b.slots[i] != 0; i = (i + 1) & mask {
		if s := b.slots[i] - 1; b.statics[s] == r {
			return s
		}
	}
	b.statics = append(b.statics, r)
	b.slots[i] = uint32(len(b.statics))
	if 2*len(b.statics) > len(b.slots) {
		b.rehash()
	}
	return uint32(len(b.statics) - 1)
}

// rehash doubles the slots, keeping them at most half full.
func (b *tableBuilder) rehash() {
	b.slots = make([]uint32, 2*len(b.slots))
	b.shift--
	mask := uint64(len(b.slots) - 1)
	for s, r := range b.statics {
		i := r.hash() >> b.shift
		for b.slots[i] != 0 {
			i = (i + 1) & mask
		}
		b.slots[i] = uint32(s + 1)
	}
}

// finish returns the built table, each part copied to its exact length
// so the resident table holds no growth slack.
func (b *tableBuilder) finish() table {
	return table{
		statics: exact(b.statics),
		ops:     exact(b.ops),
		addrs:   exact(append(b.addrs, 0)),
		esc:     exact(b.esc),
		escAt:   exact(b.escAt),
	}
}

// exact returns s in a backing array of its own length.
func exact[T any](s []T) []T {
	if len(s) == cap(s) {
		return s
	}
	return append(make([]T, 0, len(s)), s...)
}
