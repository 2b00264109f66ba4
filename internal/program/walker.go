package program

import (
	"fmt"

	"waycache/internal/isa"
	"waycache/internal/prng"
	"waycache/internal/trace"
)

// StackBase is where the simulated call stack lives (grows down), well
// away from code and data regions.
const StackBase uint64 = 0x7fff_0000

// Walker executes a Program's CFG and produces its dynamic instruction
// stream. It is an infinite trace.Source: when the entry function returns,
// the program restarts with data-stream state intact (modelling the outer
// iteration loop of a benchmark). core.Run replays a capture of it
// (trace.Arena.Capture); bound a direct run with
// trace.NewLimit(trace.Windowed(w, cap), n).
type Walker struct {
	prog *Program
	rng  *prng.Source

	fn  int // current function
	blk int // current block
	idx int // next body instruction index

	callStack []frame
	loops     map[edgeKey]int  // remaining iterations of active loops
	altState  map[edgeKey]bool // PatAlt toggles
	streams   []streamState

	emitted int64
}

type frame struct {
	fn, blk int // resume position after return
}

type edgeKey struct{ fn, blk int }

type streamState struct {
	pos   uint64 // current base value
	count int    // accesses since last advance
	chase uint64 // chase/random walk state
	cyc   int    // cyclic index
	rng   *prng.Source
}

// NewWalker builds a walker over p. The program must be laid out and valid;
// NewWalker panics otherwise, since programs are constructed by code.
func NewWalker(p *Program, seed uint64) *Walker {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if len(p.Funcs[p.Entry].Blocks) == 0 || p.Funcs[p.Entry].Blocks[0].Addr == 0 {
		p.Layout()
	}
	root := prng.New(seed)
	w := &Walker{
		prog:     p,
		rng:      root.Derive(1),
		fn:       p.Entry,
		loops:    make(map[edgeKey]int),
		altState: make(map[edgeKey]bool),
		streams:  make([]streamState, len(p.Streams)),
	}
	for i := range w.streams {
		s := &p.Streams[i]
		w.streams[i] = streamState{
			pos:   s.Base,
			chase: root.Derive(uint64(100 + i)).Uint64(),
			rng:   root.Derive(uint64(200 + i)),
		}
	}
	return w
}

// Emitted returns the number of instructions produced so far.
func (w *Walker) Emitted() int64 { return w.emitted }

// Next implements trace.Source. It always returns true: synthetic programs
// run forever.
func (w *Walker) Next(out *trace.Inst) bool {
	for {
		f := w.prog.Funcs[w.fn]
		b := f.Blocks[w.blk]
		if w.idx < len(b.Body) {
			w.emitBody(out, b, w.idx)
			w.idx++
			w.emitted++
			return true
		}
		// Terminator.
		switch b.Term.Kind {
		case TermFall:
			w.blk++
			w.idx = 0
			continue
		case TermBranch:
			w.emitBranch(out, f, b)
		case TermJump:
			target := f.Blocks[b.Term.Target]
			*out = trace.Inst{PC: b.TermPC(), Kind: isa.KindJump, Taken: true, Target: target.Addr}
			w.blk = b.Term.Target
			w.idx = 0
		case TermCall:
			callee := w.prog.Funcs[b.Term.Callee]
			*out = trace.Inst{PC: b.TermPC(), Kind: isa.KindCall, Taken: true, Target: callee.Blocks[0].Addr}
			w.callStack = append(w.callStack, frame{fn: w.fn, blk: w.blk + 1})
			w.fn = b.Term.Callee
			w.blk, w.idx = 0, 0
		case TermReturn:
			if n := len(w.callStack); n > 0 {
				fr := w.callStack[n-1]
				w.callStack = w.callStack[:n-1]
				retPC := w.prog.Funcs[fr.fn].Blocks[fr.blk].Addr
				w.fn, w.blk, w.idx = fr.fn, fr.blk, 0
				*out = trace.Inst{PC: b.TermPC(), Kind: isa.KindReturn, Taken: true, Target: retPC}
			} else {
				// Entry function finished: restart the program. Emitting a
				// jump (not a return) keeps the RAS balanced — the restart
				// is a simulation artifact standing in for the benchmark's
				// outer loop, not a real underflowing return.
				entry := w.prog.Funcs[w.prog.Entry].Blocks[0].Addr
				w.fn, w.blk, w.idx = w.prog.Entry, 0, 0
				*out = trace.Inst{PC: b.TermPC(), Kind: isa.KindJump, Taken: true, Target: entry}
			}
		default:
			panic(fmt.Sprintf("program: unknown terminator %d", b.Term.Kind))
		}
		w.emitted++
		return true
	}
}

func (w *Walker) emitBody(out *trace.Inst, b *Block, i int) {
	t := &b.Body[i]
	*out = trace.Inst{
		PC:   b.Addr + uint64(i)*isa.InstBytes,
		Kind: t.Kind,
		Dst:  t.Dst, Src1: t.Src1, Src2: t.Src2,
	}
	if t.Kind.IsMem() {
		base := w.streamBase(t.Stream)
		out.BaseValue = base
		out.Offset = t.Offset
		out.Addr = base + uint64(int64(t.Offset))
		w.streamAdvance(t.Stream)
	}
}

func (w *Walker) emitBranch(out *trace.Inst, f *Func, b *Block) {
	t := b.Term
	key := edgeKey{fn: w.fn, blk: w.blk}
	var taken bool
	switch t.Pattern {
	case PatLoop:
		rem, active := w.loops[key]
		if !active {
			if t.Fixed {
				rem = int(t.Trip + 0.5)
			} else {
				rem = w.rng.Geometric(t.Trip)
			}
			if rem < 1 {
				rem = 1
			}
		}
		rem--
		taken = rem > 0
		if taken {
			w.loops[key] = rem
		} else {
			delete(w.loops, key)
		}
	case PatBiased:
		taken = w.rng.Bool(t.Prob)
	case PatAlt:
		taken = !w.altState[key]
		w.altState[key] = taken
	default: // PatRandom
		taken = w.rng.Bool(0.5)
	}

	target := f.Blocks[t.Target]
	cond := isa.RegZero
	if len(b.Body) > 0 {
		cond = b.Body[len(b.Body)-1].Dst
	}
	*out = trace.Inst{
		PC: b.TermPC(), Kind: isa.KindBranch,
		Src1: cond, Taken: taken, Target: target.Addr,
	}
	if taken {
		w.blk = t.Target
	} else {
		w.blk++
	}
	w.idx = 0
}

// streamBase returns the current base value of stream si without advancing.
func (w *Walker) streamBase(si int) uint64 {
	s := &w.prog.Streams[si]
	st := &w.streams[si]
	switch s.Kind {
	case StreamGlobal:
		return s.Base
	case StreamStack:
		// Base is the stack base; Stride the frame size.
		depth := uint64(len(w.callStack))
		return s.Base - depth*uint64(s.Stride)
	case StreamCyclic:
		return s.Base + uint64(st.cyc)*s.CycleStride
	default:
		return st.pos
	}
}

// streamAdvance steps the stream state after an access, honouring
// AdvanceEvery so several instructions can share one base value.
func (w *Walker) streamAdvance(si int) {
	s := &w.prog.Streams[si]
	st := &w.streams[si]
	every := s.AdvanceEvery
	if every <= 0 {
		every = 1
	}
	st.count++
	if st.count < every {
		return
	}
	st.count = 0

	align := s.Align
	if align == 0 {
		align = 8
	}
	switch s.Kind {
	case StreamSeq:
		next := st.pos + uint64(s.Stride)
		if next >= s.Base+s.Length || next < s.Base {
			next = s.Base
		}
		st.pos = next
	case StreamRandom:
		if s.Length > 0 {
			off := st.rng.Uint64n(s.Length) &^ (align - 1)
			st.pos = s.Base + off
		}
	case StreamChase:
		// Deterministic pseudo-random cycle within the region: the same
		// chain of "pointers" is followed on every pass, giving chase-like
		// temporal reuse.
		st.chase = st.chase*6364136223846793005 + 1442695040888963407
		if s.Length > 0 {
			off := (st.chase >> 16) % s.Length &^ (align - 1)
			st.pos = s.Base + off
		}
	case StreamCyclic:
		if s.NWays > 0 {
			st.cyc = (st.cyc + 1) % s.NWays
		}
	}
}
