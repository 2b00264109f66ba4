package trace

// The static-instruction table: the arena's resident form of a capture.
//
// A capture revisits a few dozen to a few thousand distinct static
// instructions many thousands of times, and all a revisit can change is a
// memory op's address. Everything else an instruction carries — kind,
// registers, offset, branch direction, target — belongs to its static:
// taken and not-taken branches, and each distinct return target, are
// separate statics. So a decoded capture is kept as a table of its
// distinct records with the memory payload cleared (statics), plus two
// compact streams:
//
//   - runs: straight-line code is first met, and so numbered, in order,
//     so the stream's static indexes are mostly runs of consecutive
//     statics. Each run is its first static and its start position, 8
//     bytes for about 17 instructions on the suite captures.
//   - deltas: a static load or store mostly goes back to the same
//     neighbourhood of memory, so each memory instruction keeps its Addr
//     as a 2-byte difference from the previous Addr of its own static.
//     The one value a difference never takes, wideDelta, says the
//     address lies further off and is the next word of wide.
//
// The one other part is derived from the statics: for each, the first
// memory static at or after it (nextMem), so that expansion visits only
// a run's memory statics for their addresses. MemSource expands the table
// back into Insts a fetch window at a time, replaying each memory
// static's latest address, so a suite capture costs 0.87 to 1.77 bytes per
// instruction instead of a 48-byte Inst. The worst cases cost more and
// are pinned by the tests: a random address costs 2 + 8 bytes, and a
// stream that never continues a run 8 bytes of runs per instruction.
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
	"math"
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

// The resident sizes of a table's parts: a static record with its
// nextMem entry, a run, an address delta, a wide address, and an escaped
// instruction with its position.
const (
	recordBytes  = int64(unsafe.Sizeof(record{}))
	nextMemBytes = 4
	runBytes     = int64(unsafe.Sizeof(run{}))
	deltaBytes   = 2
	wideBytes    = 8
	escBytes     = int64(unsafe.Sizeof(Inst{})) + 4
)

// wideDelta is the delta that stands for the next wide address: a memory
// instruction whose Addr differs from its static's previous one by
// anything else than -32767 to 32767 takes it.
const wideDelta = math.MinInt16

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

// run is a stretch of a capture whose instructions are consecutive
// statics: the instruction at position at is an instance of static, the
// next one of static+1, and so on up to the next run's start.
type run struct {
	static uint32
	at     uint32
}

// table is a capture in its resident form. It is read-only once built,
// so any number of MemSources replay it at once.
type table struct {
	statics []record
	// runs cover the capture in order, then one terminating run that
	// starts at its length.
	runs []run
	// deltas holds, for each memory instruction in stream order, its Addr
	// minus the previous Addr of its static (0 before the first), or
	// wideDelta.
	deltas []int16
	// wide holds the Addr of each memory instruction whose delta is
	// wideDelta, in stream order.
	wide []uint64
	// esc holds the escaped instructions in stream order, and escAt the
	// position of each. They are instances of escapeStatic.
	esc   []Inst
	escAt []uint32
	// nextMem holds, for each static s, the first memory static at or
	// after s, or len(statics) when there is none; then len(statics).
	nextMem []uint32
}

// escapeStatic is the static every escaped instruction is an instance
// of: it takes no address, and expand's output for it is overwritten
// with the escaped instruction.
var escapeStatic = record{meta: recEscape}

// insts returns the number of instructions in the table.
func (t *table) insts() int { return int(t.runs[len(t.runs)-1].at) }

// bytes is the memory the table occupies.
func (t *table) bytes() int64 {
	return int64(len(t.statics))*recordBytes + int64(len(t.nextMem))*nextMemBytes +
		int64(len(t.runs))*runBytes + int64(len(t.deltas))*deltaBytes +
		int64(len(t.wide))*wideBytes + int64(len(t.esc))*escBytes
}

// cursor is a position in a table's streams: the next instruction, the
// run that holds it, and the next delta, wide address and escape.
type cursor struct {
	pos, run, delta, wide, esc int
}

// expand writes the len(out) instructions from c's position into out and
// advances c past them. last holds each memory static's latest address
// as of c's position, and expand keeps it so. It walks the window a run
// segment at a time, handing each to expandSeg, and writes the escaped
// instructions over their placeholders last.
//
//wclint:hotpath
func (t *table) expand(c *cursor, last []uint64, out []Inst) {
	start, end := c.pos, c.pos+len(out)
	for p := start; p < end; {
		r, stop := t.runs[c.run], int(t.runs[c.run+1].at)
		k := min(stop, end) - p
		t.expandSeg(c, last, int(r.static)+p-int(r.at), out[p-start:p-start+k])
		if p += k; p == stop {
			c.run++
		}
	}
	for ; c.esc < len(t.escAt) && int(t.escAt[c.esc]) < end; c.esc++ {
		out[int(t.escAt[c.esc])-start] = t.esc[c.esc]
	}
	c.pos = end
}

// expandSeg writes the instances of len(seg) consecutive statics, from
// static s on, into seg, taking their addresses from c's next deltas and
// wide words; last holds each memory static's latest address. It is the
// one expansion loop, in two passes over the segment, so that neither
// holds more values than there are registers (in one, Go spills them
// and the loop runs slower). The first writes every instance as if at
// address 0. The second hops from memory static to memory static by
// nextMem, so non-memory ones cost it nothing and it takes no branch
// per static: it adds each one's next delta to its latest address and
// adds the result into the address fields. Its only other branch is the
// wide-address test.
//
//wclint:hotpath
func (t *table) expandSeg(c *cursor, last []uint64, s int, seg []Inst) {
	statics := t.statics[s : s+len(seg)]
	for j := range seg {
		statics[j].put(&seg[j])
	}
	deltas, next, a := t.deltas, t.nextMem, c.delta
	end := s + len(seg)
	for ms := int(next[s]); ms < end; ms = int(next[ms+1]) {
		d := deltas[a]
		a++
		addr := last[ms] + uint64(d)
		if d == wideDelta {
			addr = t.wide[c.wide]
			c.wide++
		}
		last[ms] = addr
		in := &seg[ms-s]
		in.Addr = addr
		in.BaseValue += addr
	}
	c.delta = a
}

// put writes the instance of static r at address 0 into *in. Kind and
// the registers are adjacent bytes in both forms, so they go out as one
// store.
//
//wclint:hotpath
func (r *record) put(in *Inst) {
	regs := r.meta &^ recFlags
	in.PC = r.pc
	in.Kind, in.Dst, in.Src1, in.Src2 = isa.Kind(regs), isa.Reg(regs>>8), isa.Reg(regs>>16), isa.Reg(regs>>24)
	in.Addr = 0
	in.BaseValue = -uint64(r.off)
	in.Offset = r.off
	in.Taken = r.meta&recTaken != 0
	in.Target = r.payload
}

// inst writes the instruction r packs into *out; esc is the escape table
// an escaped record indexes.
func (r record) inst(esc []Inst, out *Inst) {
	if r.meta&recEscape != 0 {
		*out = esc[r.payload]
		return
	}
	static, addr := r.split()
	static.put(out)
	out.Addr, out.BaseValue = addr, out.BaseValue+addr
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
// predecessor's, which continues the current run, so that guess is tried
// first (follow); the rest go through an open-addressed hash of static
// indexes (addOne).
type tableBuilder struct {
	table
	n     int      // instructions added
	last  uint32   // the static of the latest instruction
	prev  []uint64 // each static's latest address
	slots []uint32 // static index + 1; 0 marks an empty slot
	shift uint     // 64 - log2(len(slots)): hash bits that pick a slot
}

// internSlots is the initial slot count, past twice the statics of any
// suite capture.
const internSlots = 4096

// newTableBuilder returns a builder sized for n instructions. Streams are
// mostly not memory instructions, so deltas starts at half of n, and
// suite captures average about 17 instructions a run, so runs starts at
// an eighth; each grows past that only for a stream that needs it.
func newTableBuilder(n int) *tableBuilder {
	return &tableBuilder{
		table: table{runs: make([]run, 0, n/8+1), deltas: make([]int16, 0, n/2+1)},
		prev:  make([]uint64, 0, internSlots/2),
		slots: make([]uint32, internSlots),
		shift: 64 - uint(bits.TrailingZeros(internSlots)),
	}
}

// add appends the instructions recs pack to the table; esc is the escape
// table escaped records index. follow takes each stretch of records that
// continues the current run, and addOne the record that ends it.
func (b *tableBuilder) add(recs []record, esc []Inst) {
	b.deltas = slices.Grow(b.deltas, len(recs))
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
// table has room for a delta for each of recs, so only a wide address
// makes a call: each record writes its delta to the next slot and keeps
// it there only if it is a memory record.
func (b *tableBuilder) follow(recs []record) int {
	statics := b.statics
	deltas := b.deltas[len(b.deltas) : len(b.deltas)+len(recs)]
	s := b.last + 1 // the static the next record must be
	i, a := 0, 0
	for ; i < len(recs); i, s = i+1, s+1 {
		static, addr := recs[i].split()
		if static.meta&recEscape != 0 || int(s) >= len(statics) || statics[s] != static {
			break
		}
		deltas[a] = b.delta(s, addr) // 0 for a non-memory static
		a += int(static.meta&recMem) >> 5
	}
	b.deltas, b.n, b.last = b.deltas[:len(b.deltas)+a], b.n+i, s-1
	return i
}

// delta returns the delta entry of an instance of static s at addr,
// appending addr to the wide words when it lies too far from the static's
// previous address, and makes addr that address.
func (b *tableBuilder) delta(s uint32, addr uint64) int16 {
	d := addr - b.prev[s]
	b.prev[s] = addr
	if n := int16(d); int64(d) == int64(n) && n > wideDelta {
		return n
	}
	b.wide = append(b.wide, addr)
	return wideDelta
}

// addOne appends the instruction r packs, escaped or an instance of any
// static, starting a run unless it is the static after the latest one.
func (b *tableBuilder) addOne(r record, esc []Inst) {
	if r.meta&recEscape != 0 {
		b.esc = append(b.esc, esc[r.payload])
		b.escAt = append(b.escAt, uint32(b.n))
		r = escapeStatic
	}
	static, addr := r.split()
	s := b.intern(static)
	if len(b.runs) == 0 || s != b.last+1 {
		b.runs = append(b.runs, run{static: s, at: uint32(b.n)})
	}
	if static.meta&recMem != 0 {
		b.deltas = append(b.deltas, b.delta(s, addr))
	}
	b.n, b.last = b.n+1, s
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
	b.statics, b.prev = append(b.statics, r), append(b.prev, 0)
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
	next := make([]uint32, len(b.statics)+1)
	next[len(b.statics)] = uint32(len(b.statics))
	for s := len(b.statics) - 1; s >= 0; s-- {
		next[s] = next[s+1]
		if b.statics[s].meta&recMem != 0 {
			next[s] = uint32(s)
		}
	}
	return table{
		statics: exact(b.statics),
		nextMem: next,
		runs:    exact(append(b.runs, run{at: uint32(b.n)})),
		deltas:  exact(b.deltas),
		wide:    exact(b.wide),
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
