// Package pipeline is the cycle-level out-of-order processor timing model:
// the stand-in for SimpleScalar's sim-outorder configured as in the paper's
// Table 1 (8-wide issue, 64-entry reorder buffer, 32-entry load/store
// queue, 2 d-cache ports, 2-level hybrid branch prediction).
//
// The model is trace-driven: it consumes the architecturally correct
// dynamic instruction stream and imposes timing. Branch mispredictions
// stall fetch until the branch resolves (wrong-path instructions are not
// simulated — their timing effect, the fetch bubble, is). Loads access the
// d-cache when they issue; stores access it at commit through a write
// buffer. The i-cache is accessed once per fetch group with the way
// prediction assembled from the BTB, RAS and SAWP per Section 2.3 of the
// paper.
//
// The core is event-driven: Run steps commit/issue/fetch cycle by cycle
// while work exists, but a dead cycle — commit blocked on the head's
// completion, no instruction ready to issue, fetch gated by the i-cache
// port timer or a full ROB — fast-forwards the clock straight to the next
// cycle anything can happen (the head's completion, the next wake filed in
// the issue wheel, or the fetch timer), instead of iterating through the
// stall. Fast-forward is observationally equivalent to cycle stepping:
// every Stats counter, including Cycles, is exactly what the
// cycle-by-cycle loop produces (the differential oracle in oracle_test.go
// and the byte-identical golden fixtures in CI enforce this). The ROB is
// laid out structure-of-arrays; issue files each entry under the cycle it
// becomes ready and pops only entries that can issue; and fetch reads
// whole block strides in place from the source's in-memory window
// (trace.WindowSource; trace.Buffered windows a plain Source) without a
// per-instruction copy.
//
// Simplifications, all orthogonal to the energy techniques under study and
// applied identically to baselines and techniques: perfect memory
// disambiguation with no store-to-load forwarding stalls, unlimited
// outstanding misses, universal function units.
package pipeline

import (
	"fmt"
	"math"
	"math/bits"

	"waycache/internal/access"
	"waycache/internal/branch"
	"waycache/internal/isa"
	"waycache/internal/trace"
)

// Config sets the machine's structural parameters (paper Table 1 defaults
// via DefaultConfig).
type Config struct {
	FetchWidth  int
	IssueWidth  int
	CommitWidth int
	ROBSize     int
	LSQSize     int
	DCachePorts int

	// MaxInsts stops the run after this many committed instructions.
	MaxInsts int64
}

// DefaultConfig returns the paper's Table 1 core.
func DefaultConfig(maxInsts int64) Config {
	return Config{
		FetchWidth:  8,
		IssueWidth:  8,
		CommitWidth: 8,
		ROBSize:     64,
		LSQSize:     32,
		DCachePorts: 2,
		MaxInsts:    maxInsts,
	}
}

// Stats aggregates the run's timing and activity counters; the wattch
// package prices the activity into processor energy.
type Stats struct {
	Cycles    int64
	Committed int64

	FetchGroups   int64
	Dispatched    int64
	Issued        int64
	Loads         int64
	Stores        int64
	Branches      int64
	BranchMispred int64
	RASMispred    int64
	RegReads      int64
	RegWrites     int64
	IntOps        int64
	FPOps         int64
}

// IPC returns committed instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// notDone is the doneAt sentinel for a dispatched-but-not-issued entry. It
// keeps the per-entry state to one comparison: doneAt[i] <= cycle means
// completed, == notDone means not yet issued, anything else is a scheduled
// completion.
const notDone = int64(math.MaxInt64)

// wheelSize is the issue wake-time wheel's span in cycles, one bucket per
// cycle; a power of two, so cycle t's bucket is t&wheelMask. A wake further
// ahead is parked (see schedule), but no model latency comes near it: a
// load that misses to memory takes about 100 cycles.
const (
	wheelSize = 256
	wheelMask = wheelSize - 1
)

// ROB entry flag bits.
const (
	// flagSrc1, flagSrc2, flagDst record which register operands exist.
	// They are the low bits, so issue indexes its tally with them directly.
	flagSrc1 uint8 = 1 << iota
	flagSrc2
	flagDst
	// flagMispred marks a control instruction that redirects fetch at
	// resolution.
	flagMispred
)

// operandFlags masks the operand bits out of an entry's flags.
const operandFlags = flagSrc1 | flagSrc2 | flagDst

// kindLatency is isa.Kind.Latency as a table for the issue loop.
var kindLatency = func() (t [isa.NumKinds]int64) {
	for k := range t {
		t[k] = int64(isa.Kind(k).Latency())
	}
	return t
}()

// Pipeline wires a trace source to the cache controllers and front end.
type Pipeline struct {
	cfg Config
	src trace.WindowSource
	dc  access.DController
	ic  *access.ICache
	fe  *branch.FrontEnd

	stats Stats
	cycle int64

	// ROB as a structure-of-arrays ring of power-of-two length
	// (>= ROBSize, so seq & robMask is injective over any window of
	// ROBSize in-flight entries): index [seq & robMask] valid for
	// head <= seq < tail. Capacity checks still use the configured
	// ROBSize. The per-entry timing state lives in dense parallel slices;
	// the 48-byte instruction payloads sit apart in insts and are read
	// only for memory ops, whose d-cache accesses need the address fields.
	doneAt  []int64    // completion cycle; notDone until issued
	flags   []uint8    // operand flags | flagMispred
	kinds   []isa.Kind // instruction kind, mirrored out of the payload
	prod1   []int64    // sources' producer seqs at dispatch, -1 when none
	prod2   []int64
	insts   []trace.Inst
	robMask int64
	head    int64
	tail    int64
	lsq     int // mem ops currently in the ROB

	// Issue scheduling. An entry with an unissued producer waits on that
	// producer's waiter list (waiters/nextWaiter, an intrusive chain of
	// seqs). Once every producer is scheduled, schedule files it under its
	// ready cycle: in ready, the ring-slot bitmap issue pops, or in wheel,
	// wheelSize ring-slot bitmaps as long as ready (bucket t&wheelMask
	// holds cycle t), which drain empties into ready as the clock reaches
	// them. occupied marks the non-empty buckets.
	waiters    []int64
	nextWaiter []int64
	ready      []uint64
	wheel      []uint64
	far        []uint64
	wakeAt     []int64 // ready cycle of a far entry
	occupied   [wheelSize / 64]uint64
	drained    int64 // every bucket through this cycle is in ready

	// tally counts issued instructions by kind and operand flags; Run
	// folds it into the issue counters of Stats.
	tally [isa.NumKinds][operandFlags + 1]int64

	// regProducer is each register's newest dispatched writer, -1 before
	// the first. commit leaves it alone: a producer below head has retired.
	regProducer [isa.NumRegs]int64

	// Fetch state.
	win         []trace.Inst // unconsumed prefix of the current window
	winUsed     int          // consumed insts not yet reported to Advance
	exhausted   bool
	fetchableAt int64  // next cycle fetch may run
	waitBranch  int64  // seq of unresolved mispredicted control, -1 if none
	icBlockMask uint64 // ^(i-cache block bytes - 1), hoisted off the fetch path

	// Way prediction handed to the next i-cache access.
	nextWay access.WayPred
}

// New builds a pipeline. src is read through its windows (trace.Windowed
// adapts a plain Source); dc and ic must be freshly constructed
// controllers; fe the front end whose BTB/RAS/SAWP carry way predictions.
func New(cfg Config, src trace.WindowSource, dc access.DController, ic *access.ICache, fe *branch.FrontEnd) *Pipeline {
	if cfg.ROBSize <= 0 || cfg.FetchWidth <= 0 || cfg.IssueWidth <= 0 ||
		cfg.CommitWidth <= 0 || cfg.LSQSize <= 0 || cfg.DCachePorts <= 0 {
		panic(fmt.Sprintf("pipeline: non-positive config %+v", cfg))
	}
	ringSize := 1 << bits.Len(uint(cfg.ROBSize-1)) // next power of two >= ROBSize
	words := (ringSize + 63) / 64
	p := &Pipeline{
		cfg: cfg, src: src, dc: dc, ic: ic, fe: fe,
		doneAt:      make([]int64, ringSize),
		flags:       make([]uint8, ringSize),
		kinds:       make([]isa.Kind, ringSize),
		prod1:       make([]int64, ringSize),
		prod2:       make([]int64, ringSize),
		insts:       make([]trace.Inst, ringSize),
		waiters:     make([]int64, ringSize),
		nextWaiter:  make([]int64, ringSize),
		ready:       make([]uint64, words),
		wheel:       make([]uint64, wheelSize*words),
		far:         make([]uint64, words),
		wakeAt:      make([]int64, ringSize),
		robMask:     int64(ringSize - 1),
		waitBranch:  -1,
		icBlockMask: ^uint64(ic.L1.BlockBytes() - 1),
	}
	for i := range p.regProducer {
		p.regProducer[i] = -1
	}
	return p
}

// Run simulates until MaxInsts instructions commit or the source drains,
// and returns the final statistics.
//
// The loop body is the classic commit/issue/fetch cycle step, but a dead
// cycle — one in which nothing committed, issued or fetched — jumps the
// clock to stallTarget() instead of incrementing it, skipping the stall's
// remaining dead cycles in O(1). The livelock safety net therefore bounds
// loop iterations, not cycles: every iteration either performs work
// (bounded by the instruction budget) or advances the clock past a stall,
// so a legitimate multi-million-cycle memory stall cannot trip it the way
// a cycle cap would.
func (p *Pipeline) Run() Stats {
	limit := p.cfg.MaxInsts*200 + 1_000_000
	for iters := int64(0); p.stats.Committed < p.cfg.MaxInsts; {
		if iters++; iters > limit {
			panic("pipeline: iteration limit exceeded — livelock")
		}
		c0, f0 := p.stats.Committed, p.stats.FetchGroups
		p.commit()
		issued := p.issue()
		p.fetch()
		if issued > 0 || p.stats.Committed != c0 || p.stats.FetchGroups != f0 {
			p.cycle++
		} else {
			// Dead cycle: fast-forward. The target is never past the first
			// cycle the stepping loop could have done anything, so the
			// clock (and every derived counter) stays bit-identical.
			p.cycle = p.stallTarget()
		}
		if p.exhausted && p.head == p.tail {
			break
		}
	}
	st := p.stats
	st.Cycles = p.cycle
	// Derive the issue counters from the [kind][operand flags] tally.
	for k, row := range p.tally {
		var n int64
		for ops, c := range row {
			n += c
			st.RegReads += c * int64(bits.OnesCount8(uint8(ops)&(flagSrc1|flagSrc2)))
			if uint8(ops)&flagDst != 0 {
				st.RegWrites += c
			}
		}
		st.Issued += n
		switch isa.Kind(k) {
		case isa.KindLoad:
			st.Loads += n
		case isa.KindStore:
			st.Stores += n
		case isa.KindIntALU, isa.KindIntMul:
			st.IntOps += n
		case isa.KindFPALU, isa.KindFPMul, isa.KindFPDiv:
			st.FPOps += n
		}
	}
	return st
}

// stallTarget returns the next cycle at which any stage can make progress,
// given that the current cycle did none. Commit waits for the head's
// completion (an unissued head reads notDone) and issue for the next wake
// filed in the wheel; every other completion matters only through one of
// those two. Fetch can additionally wake on its port timer, but only when
// the timer is its sole gate: a branch stall clears at issue time and a
// full ROB/LSQ at commit time, which the first two bounds already cover.
//
//wclint:hotpath
func (p *Pipeline) stallTarget() int64 {
	next := p.nextWake()
	if p.head < p.tail {
		if d := p.doneAt[p.head&p.robMask]; d < next {
			next = d
		}
	}
	if !p.exhausted && p.waitBranch < 0 && p.fetchableAt > p.cycle &&
		p.fetchableAt < next && !p.robFull() && p.lsq < p.cfg.LSQSize {
		next = p.fetchableAt
	}
	if next == notDone {
		// No known event: the source just drained or is about to. Step a
		// single cycle, exactly as the stepping loop would.
		return p.cycle + 1
	}
	return next
}

// nextWake returns the earliest cycle after drained whose wheel bucket is
// non-empty, or notDone when the wheel is empty: a search of the occupancy
// bitmap from the bucket for drained+1, wrapping once.
//
//wclint:hotpath
func (p *Pipeline) nextWake() int64 {
	const n = int64(len(p.occupied))
	start := (p.drained + 1) & wheelMask
	sw, sb := start>>6, uint(start&63)
	for k := int64(0); k <= n; k++ {
		wi := (sw + k) & (n - 1)
		w := p.occupied[wi]
		switch k {
		case 0:
			w &= ^uint64(0) << sb
		case n:
			w &= 1<<sb - 1
		}
		if w != 0 {
			b := wi<<6 + int64(bits.TrailingZeros64(w))
			return p.drained + 1 + (b-start)&wheelMask
		}
	}
	return notDone
}

//wclint:hotpath
func (p *Pipeline) commit() {
	// Locals keep the ring state in registers across the store interface
	// call. Only stores touch the payload; the kind comes from the byte
	// array.
	doneAt, kinds, mask := p.doneAt, p.kinds, p.robMask
	cycle, tail := p.cycle, p.tail
	for n := 0; n < p.cfg.CommitWidth && p.head < tail &&
		p.stats.Committed < p.cfg.MaxInsts; n++ {
		idx := p.head & mask
		if doneAt[idx] > cycle { // covers not-issued: notDone
			return
		}
		switch kinds[idx] {
		case isa.KindStore:
			// Stores probe the tag array and write the matching way at
			// commit; the write buffer hides the latency.
			p.dc.Store(&p.insts[idx])
			p.lsq--
		case isa.KindLoad:
			p.lsq--
		}
		p.head++
		p.stats.Committed++
	}
}

// place files entry seq, whose sources are produced by pr1 and pr2, for
// issue. While a producer has not issued, the entry waits on that
// producer's waiter list; once every producer is scheduled, its ready
// cycle is the latest producer completion, and schedule files it under
// that cycle. A producer below head has retired (its value committed in
// the past) and contributes nothing.
//
//wclint:hotpath
func (p *Pipeline) place(seq, pr1, pr2 int64) {
	doneAt, mask, head := p.doneAt, p.robMask, p.head
	at := int64(0)
	if pr1 >= head {
		if at = doneAt[pr1&mask]; at == notDone {
			p.nextWaiter[seq&mask] = p.waiters[pr1&mask]
			p.waiters[pr1&mask] = seq
			return
		}
	}
	if pr2 >= head {
		d := doneAt[pr2&mask]
		if d == notDone {
			p.nextWaiter[seq&mask] = p.waiters[pr2&mask]
			p.waiters[pr2&mask] = seq
			return
		}
		at = max(at, d)
	}
	p.schedule(seq&mask, at)
}

// wake places again each entry on the waiter chain of a producer that
// just issued.
//
//wclint:hotpath
func (p *Pipeline) wake(wseq int64) {
	for wseq >= 0 {
		wi := wseq & p.robMask
		next := p.nextWaiter[wi]
		p.place(wseq, p.prod1[wi], p.prod2[wi])
		wseq = next
	}
}

// schedule files the entry in ring slot idx to issue from cycle at: in
// ready when that cycle has been drained, else in its wheel bucket. A wake
// wheelSize or more cycles ahead is parked in the last bucket (cycle
// drained+wheelSize-1) with its far bit set, and drain files it again from
// wakeAt.
//
//wclint:hotpath
func (p *Pipeline) schedule(idx, at int64) {
	w, bit := idx>>6, uint64(1)<<uint(idx&63)
	ahead := at - p.drained
	if ahead <= 0 {
		p.ready[w] |= bit
		return
	}
	if ahead >= wheelSize {
		p.wakeAt[idx] = at
		p.far[w] |= bit
		at = p.drained + wheelSize - 1
	}
	b := at & wheelMask
	p.wheel[b*int64(len(p.ready))+w] |= bit
	p.occupied[b>>6] |= 1 << uint(b&63)
}

// drain moves every wheel bucket the clock has reached into ready, oldest
// cycle first. The clock usually advances one cycle at a time, which costs
// one occupancy bit test; after a fast-forward, nextWake skips the empty
// buckets in between. A far entry is filed again instead, relative to the
// bucket's own cycle, so it can never land back in the bucket draining.
//
//wclint:hotpath
func (p *Pipeline) drain() {
	for p.drained < p.cycle {
		t := p.drained + 1
		if t < p.cycle {
			if t = p.nextWake(); t > p.cycle {
				break
			}
		}
		p.drained = t
		b := t & wheelMask
		if p.occupied[b>>6]&(1<<uint(b&63)) == 0 {
			continue
		}
		p.occupied[b>>6] &^= 1 << uint(b&63)
		n := int64(len(p.ready))
		bucket := p.wheel[b*n : (b+1)*n]
		for w, m := range bucket {
			if m == 0 {
				continue
			}
			bucket[w] = 0
			if f := m & p.far[w]; f != 0 {
				m &^= f
				p.far[w] &^= f
				for f != 0 {
					idx := int64(w<<6 + bits.TrailingZeros64(f))
					f &= f - 1
					p.schedule(idx, p.wakeAt[idx])
				}
			}
			p.ready[w] |= m
		}
	}
	p.drained = p.cycle
}

// issue drains the wheel up to the current cycle, then pops ready entries
// oldest-first — from head's ring slot around the ring — until the issue
// width is used, passing over loads once the d-cache ports are taken. It
// visits only entries that can issue, and returns how many did.
//
//wclint:hotpath
func (p *Pipeline) issue() int {
	p.drain()
	// Hoist the hot ring state into locals: slice headers and loop bounds
	// stay in registers across the d-cache interface calls below, which
	// would otherwise force a reload of every field on each iteration.
	ready, doneAt, mask, cycle := p.ready, p.doneAt, p.robMask, p.cycle
	h := p.head & mask
	hw, hb := int(h>>6), uint(h&63)
	n := len(ready)
	ports, width, issued := p.cfg.DCachePorts, p.cfg.IssueWidth, 0
	// n+1 word visits: head's word is split into its bits at and above
	// head (first, the oldest) and below head (last, the newest).
	for k := 0; k <= n && issued < width; k++ {
		wi := hw + k
		if wi >= n {
			wi -= n
		}
		w := ready[wi]
		switch k {
		case 0:
			w &= ^uint64(0) << hb
		case n:
			w &= 1<<hb - 1
		}
		for w != 0 && issued < width {
			idx := int64(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
			kind := p.kinds[idx]
			lat := kindLatency[kind]
			if kind == isa.KindLoad {
				if ports == 0 {
					continue
				}
				ports--
				cacheLat, _ := p.dc.Load(&p.insts[idx])
				lat += int64(cacheLat) - 1 // the cache latency includes the access cycle
			}
			done := cycle + lat
			doneAt[idx] = done
			ready[wi] &^= 1 << uint(idx&63)
			f := p.flags[idx]
			p.tally[kind][f&operandFlags]++
			// This entry's completion is now scheduled: place anything
			// chained on it. Its wakes lie past this cycle, in the wheel.
			if wseq := p.waiters[idx]; wseq >= 0 {
				p.waiters[idx] = -1
				p.wake(wseq)
			}
			issued++

			// A mispredicted control instruction restarts fetch one cycle
			// after it resolves.
			if f&flagMispred != 0 && p.waitBranch >= 0 && p.waitBranch&mask == idx {
				p.fetchableAt = done + 1
				p.waitBranch = -1
			}
		}
	}
	return issued
}

// peekInst returns the lookahead instruction without consuming it, in
// place in the source's window.
//
//wclint:hotpath
func (p *Pipeline) peekInst() (*trace.Inst, bool) {
	if len(p.win) == 0 && !p.refillWindow() {
		return nil, false
	}
	return &p.win[0], true
}

// refillWindow reports the consumed prefix to the source in one Advance
// call and pulls the next window — a run of a few hundred instructions,
// expanded from the arena's packed records for a replay — so
// steady-state fetch makes no per-instruction source calls at all.
//
//wclint:hotpath
func (p *Pipeline) refillWindow() bool {
	if p.exhausted {
		return false
	}
	if p.winUsed > 0 {
		p.src.Advance(p.winUsed)
		p.winUsed = 0
	}
	p.win = p.src.Window()
	if len(p.win) == 0 {
		p.exhausted = true
		return false
	}
	return true
}

// consumeInst consumes the instruction peekInst returned. The returned
// pointer stays valid until the next peekInst call.
//
//wclint:hotpath
func (p *Pipeline) consumeInst() {
	p.win = p.win[1:]
	p.winUsed++
}

//wclint:hotpath
func (p *Pipeline) robFull() bool {
	return p.tail-p.head >= int64(p.cfg.ROBSize)
}

//wclint:hotpath
func (p *Pipeline) dispatch(in *trace.Inst, mispred bool) {
	idx := p.tail & p.robMask
	p.insts[idx] = *in
	p.doneAt[idx] = notDone
	kind := in.Kind
	if int(kind) >= isa.NumKinds {
		kind = isa.KindNop // an out-of-isa kind times and counts as a nop
	}
	p.kinds[idx] = kind
	var f uint8
	if mispred {
		f = flagMispred
	}
	// A source's last writer may since have completed or retired; place
	// reads that off its completion time and seq.
	pr1, pr2 := int64(-1), int64(-1)
	if !in.Src1.IsZero() {
		f |= flagSrc1
		pr1 = p.regProducer[in.Src1]
	}
	if !in.Src2.IsZero() {
		f |= flagSrc2
		pr2 = p.regProducer[in.Src2]
	}
	if !in.Dst.IsZero() {
		f |= flagDst
		p.regProducer[in.Dst] = p.tail
	}
	p.flags[idx] = f
	p.prod1[idx], p.prod2[idx] = pr1, pr2
	p.waiters[idx] = -1
	p.place(p.tail, pr1, pr2)
	if kind.IsMem() {
		p.lsq++
	}
	if mispred {
		p.waitBranch = p.tail
	}
	p.tail++
	p.stats.Dispatched++
}

// fetch runs one fetch group: a single i-cache access plus up to FetchWidth
// instructions from the same cache block, ending early at a taken (or
// mispredicted) control instruction. The whole block stride is read in
// place from the source's window.
//
//wclint:hotpath
func (p *Pipeline) fetch() {
	if p.cycle < p.fetchableAt || p.waitBranch >= 0 {
		return
	}
	in, ok := p.peekInst()
	if !ok {
		return
	}
	if p.robFull() || p.lsq >= p.cfg.LSQSize {
		return
	}

	block := in.PC & p.icBlockMask

	lat, _, trueWay := p.ic.Fetch(in.PC, p.nextWay)
	p.stats.FetchGroups++

	// Train the structures that predicted (or should predict) this block's
	// way, now that the true way is known.
	p.fe.TrainWays(trueWay)

	// Defaults for the next access: sequential transition predicted by the
	// SAWP, trained on this block.
	endedByControl := false
	for n := 0; n < p.cfg.FetchWidth; n++ {
		if p.robFull() || p.lsq >= p.cfg.LSQSize {
			break
		}
		// peekInst inlines to a window-length check; only a window
		// boundary calls out to refillWindow.
		in, ok := p.peekInst()
		if !ok {
			break
		}
		if in.PC&p.icBlockMask != block {
			break
		}
		// Consume the lookahead in place: in stays valid until the next
		// peek, so dispatch/fetchControl can read it without a copy.
		p.consumeInst()

		if !in.Kind.IsControl() {
			p.dispatch(in, false)
			continue
		}
		endedByControl = true
		stop := p.fetchControl(in, block, trueWay)
		if stop {
			break
		}
		endedByControl = false
	}

	if !endedByControl {
		// Sequential (or not-taken-branch) transition into the next block:
		// the SAWP predicts and is trained on it.
		way, ok := p.fe.SAWP.Lookup(block)
		p.nextWay = access.WayPred{Way: way, OK: ok, Source: access.SrcSAWP}
		p.fe.NoteSAWP(block)
	}

	// The i-cache occupies the port for lat cycles on misses and way
	// mispredictions; the next group cannot start before that.
	if lat < 1 {
		lat = 1
	}
	p.fetchableAt = p.cycle + int64(lat)
}

// fetchControl dispatches a control instruction, performs all front-end
// prediction and training, and reports whether the fetch group must stop.
//
//wclint:hotpath
func (p *Pipeline) fetchControl(in *trace.Inst, block uint64, blockWay int) bool {
	fe := p.fe
	switch in.Kind {
	case isa.KindBranch:
		p.stats.Branches++
		predTaken := fe.Dir.Predict(in.PC)
		fe.Dir.Update(in.PC, in.Taken)
		mispred := predTaken != in.Taken
		if mispred {
			p.stats.BranchMispred++
		}
		if in.Taken {
			// Train the BTB with the target's way at the next access.
			fe.NoteBTB(in.PC, in.Target)
		}
		p.dispatch(in, mispred)
		if mispred {
			// Fetch stalls until resolution; the restart fetch has no way
			// prediction (parallel access), per the paper.
			p.nextWay = access.WayPred{}
			return true
		}
		if in.Taken {
			_, way, wayOK, hit := fe.BTB.Lookup(in.PC)
			if hit && wayOK {
				p.nextWay = access.WayPred{Way: way, OK: true, Source: access.SrcBTB}
			} else {
				p.nextWay = access.WayPred{}
			}
			return true
		}
		// Correctly predicted not-taken: fetch continues within the block.
		return false

	case isa.KindJump, isa.KindCall:
		p.stats.Branches++
		_, way, wayOK, hit := fe.BTB.Lookup(in.PC)
		if hit && wayOK {
			p.nextWay = access.WayPred{Way: way, OK: true, Source: access.SrcBTB}
		} else {
			p.nextWay = access.WayPred{}
		}
		fe.NoteBTB(in.PC, in.Target)
		if in.Kind == isa.KindCall {
			// Push the return address; its block is usually the current
			// one, whose way we know right now.
			ret := in.FallThrough()
			sameBlock := ret&p.icBlockMask == block
			fe.RAS.Push(ret, blockWay, sameBlock)
		}
		p.dispatch(in, false)
		return true

	case isa.KindReturn:
		p.stats.Branches++
		addr, way, wayOK, ok := fe.RAS.Pop()
		mispred := !ok || addr != in.Target
		if mispred {
			p.stats.RASMispred++
			p.stats.BranchMispred++
		}
		p.dispatch(in, mispred)
		if mispred {
			p.nextWay = access.WayPred{}
			return true
		}
		if wayOK {
			p.nextWay = access.WayPred{Way: way, OK: true, Source: access.SrcRAS}
		} else {
			p.nextWay = access.WayPred{}
		}
		return true
	}
	panic("pipeline: non-control kind in fetchControl")
}
