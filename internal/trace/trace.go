// Package trace defines the dynamic instruction record produced by workload
// generators and consumed by the timing pipeline.
//
// A trace is the moral equivalent of a SimpleScalar sim-outorder dynamic
// stream: each record carries the architectural information timing and
// energy models need, and nothing else.
//
// Producers emit a stream through the Source interface (Next): live
// workload walkers, Capture and the traceconv exporters pull from it.
// Consumers read it through WindowSource (Window/Advance), a fetch window
// at a time; Windowed buffers a producer for them. The on-disk capture
// format (file.go: Writer, Capture, ReadHeader; spec in
// docs/TRACE_FORMAT.md) is versioned and varint-delta-compressed, so
// sweeps replay recorded workloads byte-identically without re-walking
// the generators. Every replay goes through an Arena (arena.go), which
// decodes each capture whole, once, into a shared static-instruction
// table (packed.go) — its distinct instructions, the runs of consecutive
// statics its stream forms and a 2-byte delta per memory address — and
// replays it by index (MemSource), expanding one fetch window of
// instructions at a time, so an N-config sweep pays one decode per file
// instead of one per simulation.
package trace

import "waycache/internal/isa"

// Inst is one dynamic instruction.
//
// For loads and stores, Addr is the effective data address and BaseValue /
// Offset satisfy Addr == BaseValue + uint64(Offset) (two's complement).
// The XOR-based way predictor forms its approximate handle as
// BaseValue ^ uint64(Offset), exactly as proposed by Austin & Sohi and used
// by Calder, Grunwald & Emer; whether that approximation lands in the same
// predictor entry as the true address is decided by real carry behaviour,
// not by a modelled accuracy constant.
//
// For control transfers, Taken and Target describe the actual outcome, which
// the front end compares against its prediction.
type Inst struct {
	PC   uint64
	Kind isa.Kind

	// Register dependences. Src registers equal to isa.RegZero carry no
	// dependence. Dst equal to isa.RegZero means no register is written.
	Dst  isa.Reg
	Src1 isa.Reg
	Src2 isa.Reg

	// Memory payload (loads and stores).
	Addr      uint64
	BaseValue uint64
	Offset    int32

	// Control payload.
	Taken  bool
	Target uint64
}

// XORHandle returns the approximate-address handle used by XOR-based way
// prediction: the load's base register value XORed with its sign-extended
// immediate offset. For addresses where base+offset generates no carries
// into the index bits this equals the true effective address.
func (in *Inst) XORHandle() uint64 {
	return in.BaseValue ^ uint64(int64(in.Offset))
}

// FallThrough returns the next sequential PC.
func (in *Inst) FallThrough() uint64 { return in.PC + isa.InstBytes }

// NextPC returns the architecturally correct next PC.
func (in *Inst) NextPC() uint64 {
	if in.Kind.IsControl() && in.Taken {
		return in.Target
	}
	return in.FallThrough()
}

// Source is a producer of a dynamic instruction stream: the live
// workload walkers implement it, and Capture, Windowed and the traceconv
// exporters pull from it.
//
// Next fills *out and returns true, or returns false when the stream is
// exhausted. Implementations must be deterministic for a fixed construction
// seed.
type Source interface {
	Next(out *Inst) bool
}

// WindowSource is how consumers read an instruction stream: the
// consumer inspects a contiguous prefix of the remaining instructions
// without copying them and consumes any leading part of it in one step.
// The pipeline's front end reads whole fetch strides straight out of the
// window. Replayed captures (MemSource) and in-memory streams (Repeat)
// expose windows directly; a producer that only has Next reaches a
// consumer through Windowed.
//
// Window returns a non-empty contiguous prefix of the remaining stream, or
// an empty slice when the source is drained; it does not consume anything.
// Advance consumes the first n instructions of the most recent Window.
// The returned slice is valid until the next Window call, and must not be
// modified.
type WindowSource interface {
	Window() []Inst
	Advance(n int)
}

// Repeat replays a fixed slice of instructions Times times (0 means
// forever). Because the PCs repeat, caches and predictors warm up after the
// first pass — convenient for timing tests that should not be dominated by
// compulsory misses.
type Repeat struct {
	Insts []Inst
	Times int

	pos  int
	done int
}

// Window implements WindowSource: the remainder of the current pass. A
// drained pass starts the next one, and charges the Times budget.
func (r *Repeat) Window() []Inst {
	if len(r.Insts) == 0 {
		return nil
	}
	if r.pos >= len(r.Insts) {
		r.pos = 0
		r.done++
		if r.Times > 0 && r.done >= r.Times {
			return nil
		}
	}
	return r.Insts[r.pos:]
}

// Advance implements WindowSource.
func (r *Repeat) Advance(n int) { r.pos += n }

// Buffered windows a plain Source by generating ahead into a fixed
// buffer: Window exposes the buffered run, and a drained buffer refills
// with one batch of Next calls. Live generators (workload walkers) produce
// their stream independently of the consumer's timing, so buffering ahead
// yields the identical sequence — it just lets the pipeline's batch fetch
// path read it in place instead of pulling one record per call.
type Buffered struct {
	Src Source

	buf []Inst
	pos int
	n   int
}

// Windowed returns src behind a window buffer of cap instructions.
func Windowed(src Source, cap int) *Buffered {
	return &Buffered{Src: src, buf: make([]Inst, cap)}
}

// Window implements WindowSource.
func (b *Buffered) Window() []Inst {
	if b.pos >= b.n {
		b.pos, b.n = 0, 0
		for b.n < len(b.buf) && b.Src.Next(&b.buf[b.n]) {
			b.n++
		}
	}
	return b.buf[b.pos:b.n]
}

// Advance implements WindowSource.
func (b *Buffered) Advance(n int) { b.pos += n }

// Limit wraps a WindowSource and stops after N instructions. Windows come
// straight from the underlying source, cut to the instructions the budget
// still allows.
type Limit struct {
	Src WindowSource
	N   int64

	seen int64
}

// NewLimit returns a WindowSource that yields at most n instructions from
// src.
func NewLimit(src WindowSource, n int64) *Limit {
	return &Limit{Src: src, N: n}
}

// Window implements WindowSource.
func (l *Limit) Window() []Inst {
	if l.seen >= l.N {
		return nil
	}
	w := l.Src.Window()
	if rem := l.N - l.seen; int64(len(w)) > rem {
		w = w[:rem]
	}
	return w
}

// Advance implements WindowSource.
func (l *Limit) Advance(n int) {
	l.Src.Advance(n)
	l.seen += int64(n)
}
