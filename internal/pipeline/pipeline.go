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
// while work exists, but a dead cycle — commit blocked on an in-flight
// completion, no instruction ready to issue, fetch gated by the i-cache
// port timer or a full ROB — fast-forwards the clock straight to the next
// cycle anything can happen (the earliest pending completion, or the fetch
// timer), instead of iterating through the stall. Fast-forward is
// observationally equivalent to cycle stepping: every Stats counter,
// including Cycles, is exactly what the cycle-by-cycle loop produces (the
// differential oracle in oracle_test.go and the byte-identical golden
// fixtures in CI enforce this). The ROB is laid out structure-of-arrays so
// the commit/issue scans and the next-event search walk dense typed
// slices, and fetch reads whole block strides in place from the source's
// in-memory window (trace.WindowSource; trace.Buffered windows a plain
// Source) without a per-instruction copy.
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
// completion — and the next-event search needs no flag checks at all.
const notDone = int64(math.MaxInt64)

// ROB entry flag bits.
const (
	// flagMispred marks a control instruction that redirects fetch at
	// resolution.
	flagMispred uint8 = 1 << iota
	// flagSrc1, flagSrc2, flagDst record which register operands exist,
	// so the issue-time stat counts read one byte instead of the payload.
	flagSrc1
	flagSrc2
	flagDst
)

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
	// ROBSize. The per-seq timing state lives in dense parallel slices —
	// doneAt (with the notDone sentinel), flags, producer seqs — so the
	// commit/issue scans and the next-event min search walk contiguous
	// typed memory; the 48-byte instruction payloads sit apart in insts
	// and are touched only when an entry actually issues or commits.
	doneAt []int64    // completion cycle; notDone until issued
	flags  []uint8    // flagMispred | flagSrc1 | flagSrc2 | flagDst
	kinds  []isa.Kind // instruction kind, mirrored out of the payload
	dsts   []isa.Reg  // destination register, mirrored out of the payload
	prod1  []int64    // producer sequence numbers, -1 when none
	prod2  []int64
	insts  []trace.Inst // dispatched instruction payloads; the commit and
	// issue scans touch it only for memory ops (the d-cache needs the
	// address fields) — everything they need per ALU op lives in the
	// single-byte arrays above, one cache line per 64 entries
	// unissued is a bitmap over ring slots (bit idx set = dispatched, not
	// yet issued); the issue cursor advances over its clear prefix a word
	// at a time. scannable is the subset the issue scan actually visits:
	// entries whose producers have all been scheduled (or retired). An
	// entry with an unissued producer is in neither scan — it hangs off
	// that producer's waiter list (waiters/nextWaiter, an intrusive
	// per-slot chain) and is woken when the producer issues, either onto
	// its other pending producer's list or into the scannable set with
	// wakeAt = the latest producer completion time. The scan's whole
	// ready check is then wakeAt[i] <= cycle: exactly the old per-producer
	// probe, precomputed once per wake instead of re-derived every cycle.
	unissued   []uint64
	scannable  []uint64
	wakeAt     []int64
	waiters    []int64
	nextWaiter []int64
	// inflight over-approximates the slots holding a scheduled future
	// completion: set at issue, cleared lazily by the next-event rescan
	// once the completion is in the past. The rescan pops its set bits
	// instead of probing every doneAt slot in the window.
	inflight []uint64
	robMask  int64
	head     int64
	tail     int64
	// issueCursor trails the first non-issued entry: every entry below it
	// has issued, so the per-cycle issue scan never revisits the completed
	// prefix of a long-stalled ROB. It only ever advances (entries never
	// un-issue; head only grows).
	issueCursor int64
	lsq         int // mem ops currently in the ROB

	// nextDoneAt is the stall fast-forward's next-event tracker: a value t
	// such that no in-flight completion lies in (cycle, t), maintained at
	// issue time by folding in every scheduled doneAt. Once the clock
	// reaches it the tracker is stale, and the next stall recomputes it
	// exactly with one min-scan of the doneAt window.
	nextDoneAt int64

	regProducer [isa.NumRegs]int64 // seq of last in-flight writer, -1 if none

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
	p := &Pipeline{
		cfg: cfg, src: src, dc: dc, ic: ic, fe: fe,
		doneAt:      make([]int64, ringSize),
		unissued:    make([]uint64, (ringSize+63)/64),
		scannable:   make([]uint64, (ringSize+63)/64),
		inflight:    make([]uint64, (ringSize+63)/64),
		wakeAt:      make([]int64, ringSize),
		waiters:     make([]int64, ringSize),
		nextWaiter:  make([]int64, ringSize),
		flags:       make([]uint8, ringSize),
		kinds:       make([]isa.Kind, ringSize),
		dsts:        make([]isa.Reg, ringSize),
		prod1:       make([]int64, ringSize),
		prod2:       make([]int64, ringSize),
		insts:       make([]trace.Inst, ringSize),
		robMask:     int64(ringSize - 1),
		waitBranch:  -1,
		icBlockMask: ^uint64(ic.L1.BlockBytes() - 1),
	}
	for i := range p.regProducer {
		p.regProducer[i] = -1
	}
	return p
}

// Stats returns a copy of the counters.
func (p *Pipeline) Stats() Stats { return p.stats }

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
		c0, i0, f0 := p.stats.Committed, p.stats.Issued, p.stats.FetchGroups
		p.commit()
		p.issue()
		p.fetch()
		if p.stats.Committed != c0 || p.stats.Issued != i0 || p.stats.FetchGroups != f0 {
			p.cycle++
		} else {
			// Dead cycle: fast-forward. The target is exactly the first
			// cycle the stepping loop could have done anything, so the
			// clock (and every derived counter) stays bit-identical.
			p.cycle = p.stallTarget()
			p.stats.Cycles = p.cycle
		}
		if p.exhausted && p.head == p.tail {
			break
		}
	}
	p.stats.Cycles = p.cycle
	return p.stats
}

// stallTarget returns the next cycle at which any stage can make progress,
// given that the current cycle did none. Commit is blocked until the head's
// completion and issue until some producer's completion — both bounded
// below by the next pending completion. Fetch can additionally wake on its
// port timer, but only when the timer is its sole gate: a branch stall
// clears at issue time and a full ROB/LSQ at commit time, which the
// completion bound already covers.
//
//wclint:hotpath
func (p *Pipeline) stallTarget() int64 {
	next := p.nextEvent()
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

// nextEvent returns the earliest in-flight completion strictly after the
// current cycle, or notDone when there is none. It serves the tracker's
// value when still ahead of the clock and otherwise recomputes it by
// popping the inflight bitmap — only slots that ever had a scheduled
// completion are probed, and slots whose completion has passed drop out of
// the bitmap here, so repeated stalls don't re-probe them. (A popped slot
// recycled by a not-yet-issued entry reads notDone: harmless to the min,
// and re-marked at issue anyway.)
//
//wclint:hotpath
func (p *Pipeline) nextEvent() int64 {
	if p.nextDoneAt > p.cycle {
		return p.nextDoneAt
	}
	min := notDone
	for wi, w := range p.inflight {
		for w != 0 {
			j := bits.TrailingZeros64(w)
			w &= w - 1
			if d := p.doneAt[wi<<6+j]; d > p.cycle {
				if d < min {
					min = d
				}
			} else {
				p.inflight[wi] &^= 1 << uint(j)
			}
		}
	}
	p.nextDoneAt = min
	return min
}

//wclint:hotpath
func (p *Pipeline) commit() {
	// Locals keep the ring state in registers across the store interface
	// call (see issue for the same pattern). Only stores touch the payload;
	// kind and destination come from the byte arrays.
	doneAt, kinds, dsts, mask := p.doneAt, p.kinds, p.dsts, p.robMask
	cycle, tail := p.cycle, p.tail
	for n := 0; n < p.cfg.CommitWidth && p.head < tail &&
		p.stats.Committed < p.cfg.MaxInsts; n++ {
		idx := p.head & mask
		if doneAt[idx] > cycle { // covers not-issued: notDone
			return
		}
		kind := kinds[idx]
		if kind == isa.KindStore {
			// Stores probe the tag array and write the matching way at
			// commit; the write buffer hides the latency.
			p.dc.Store(&p.insts[idx])
			p.lsq--
		}
		if kind == isa.KindLoad {
			p.lsq--
		}
		// Free the architectural register mapping if this is still the
		// newest producer.
		if d := dsts[idx]; !d.IsZero() && p.regProducer[d] == p.head {
			p.regProducer[d] = -1
		}
		p.head++
		p.stats.Committed++
	}
}

// wake reprocesses the waiter chain of a producer that just issued. Each
// waiter either re-chains onto its other still-unissued producer or enters
// the scannable set with wakeAt set to its latest producer completion — a
// time now fully known, since every remaining producer is scheduled. A
// producer below head has retired (its value committed in the past) and
// contributes nothing.
//
//wclint:hotpath
func (p *Pipeline) wake(wseq int64) {
	doneAt, mask, head := p.doneAt, p.robMask, p.head
	for wseq >= 0 {
		wi := wseq & mask
		next := p.nextWaiter[wi]
		if pr := p.prod1[wi]; pr >= head && doneAt[pr&mask] == notDone {
			p.nextWaiter[wi] = p.waiters[pr&mask]
			p.waiters[pr&mask] = wseq
		} else if pr := p.prod2[wi]; pr >= head && doneAt[pr&mask] == notDone {
			p.nextWaiter[wi] = p.waiters[pr&mask]
			p.waiters[pr&mask] = wseq
		} else {
			wa := int64(0)
			if pr := p.prod1[wi]; pr >= head {
				wa = doneAt[pr&mask]
			}
			if pr := p.prod2[wi]; pr >= head {
				if d := doneAt[pr&mask]; d > wa {
					wa = d
				}
			}
			p.wakeAt[wi] = wa
			p.scannable[wi>>6] |= 1 << uint(wi&63)
		}
		wseq = next
	}
}

//wclint:hotpath
func (p *Pipeline) issue() {
	issued := 0
	ports := p.cfg.DCachePorts
	width := p.cfg.IssueWidth
	// Hoist the hot ring state into locals: slice headers and loop bounds
	// stay in registers across the d-cache interface calls below, which
	// would otherwise force a reload of every field on each iteration.
	doneAt, unissued, scannable, mask := p.doneAt, p.unissued, p.scannable, p.robMask
	head, tail, cycle := p.head, p.tail, p.cycle
	ringSize := mask + 1

	// Advance the cursor to the first unissued seq, word-wise over the
	// unissued bitmap. The cursor only moves forward, so the whole-run cost
	// is one pass over the issued prefix — amortized O(1) per instruction —
	// and the scan below never revisits the completed prefix of a
	// long-stalled ROB. (The cursor tracks unissued, not scannable: a
	// chain-stalled entry below the first scannable bit must stay inside
	// the scanned range for the cycle its producer wakes it.)
	cursor := p.issueCursor
	if cursor < head {
		cursor = head
	}
	for cursor < tail {
		idx := cursor & mask
		w := unissued[idx>>6] >> uint(idx&63)
		span := 64 - idx&63
		if r := ringSize - idx; r < span {
			span = r // ring wraps mid-word (ring smaller than one word)
		}
		if r := tail - cursor; r < span {
			span = r
		}
		if span < 64 {
			w &= 1<<uint(span) - 1
		}
		if w != 0 {
			cursor += int64(bits.TrailingZeros64(w))
			break
		}
		cursor += span
	}
	p.issueCursor = cursor

	// The in-order window scan, over set bits of the scannable bitmap only:
	// issued-but-uncommitted holes and chain-stalled entries — the bulk of
	// a wide window — cost nothing at all. The outer loop takes the window
	// a word-chunk at a time (clipped to the word, the ring edge, and
	// tail); the inner loop pops candidate entries in seq order. A bit set
	// by a mid-scan wake lands in a later chunk or next call; either way
	// its wakeAt is past the current cycle, so nothing issuable is missed.
	for seq := cursor; seq < tail && issued < width; {
		idx := seq & mask
		w := scannable[idx>>6] >> uint(idx&63)
		span := 64 - idx&63
		if r := ringSize - idx; r < span {
			span = r
		}
		if r := tail - seq; r < span {
			span = r
		}
		if span < 64 {
			w &= 1<<uint(span) - 1
		}
		for w != 0 && issued < width {
			j := int64(bits.TrailingZeros64(w))
			w &= w - 1
			s := seq + j
			i2 := idx + j
			// One precomputed comparison stands in for the old per-producer
			// probes: wakeAt is the latest producer completion, fixed when
			// the last producer was scheduled.
			if p.wakeAt[i2] > cycle {
				continue
			}
			kind := p.kinds[i2]
			if kind == isa.KindLoad && ports == 0 {
				continue
			}

			lat := kind.Latency()
			switch kind {
			case isa.KindLoad:
				ports--
				p.stats.Loads++
				cacheLat, _ := p.dc.Load(&p.insts[i2])
				lat += cacheLat - 1 // the cache latency includes the access cycle
			case isa.KindStore:
				p.stats.Stores++
				// Address generation only; the write happens at commit.
			case isa.KindIntALU, isa.KindIntMul:
				p.stats.IntOps++
			case isa.KindFPALU, isa.KindFPMul, isa.KindFPDiv:
				p.stats.FPOps++
			}
			done := cycle + int64(lat)
			doneAt[i2] = done
			unissued[i2>>6] &^= 1 << uint(i2&63)
			scannable[i2>>6] &^= 1 << uint(i2&63)
			p.inflight[i2>>6] |= 1 << uint(i2&63)
			if done < p.nextDoneAt {
				p.nextDoneAt = done
			}
			// This entry's completion is now scheduled: release anything
			// chained on it.
			if wseq := p.waiters[i2]; wseq >= 0 {
				p.waiters[i2] = -1
				p.wake(wseq)
			}
			issued++
			p.stats.Issued++
			f := p.flags[i2]
			if f&flagSrc1 != 0 {
				p.stats.RegReads++
			}
			if f&flagSrc2 != 0 {
				p.stats.RegReads++
			}
			if f&flagDst != 0 {
				p.stats.RegWrites++
			}

			// A mispredicted control instruction restarts fetch one cycle
			// after it resolves.
			if f&flagMispred != 0 && p.waitBranch == s {
				p.fetchableAt = done + 1
				p.waitBranch = -1
			}
		}
		seq += span
	}
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
	p.unissued[idx>>6] |= 1 << uint(idx&63)
	p.kinds[idx] = in.Kind
	p.dsts[idx] = in.Dst
	var f uint8
	if mispred {
		f = flagMispred
	}
	// Record only producers that are still incomplete: completion is
	// monotone (doneAt never un-passes the clock), so a producer that has
	// already finished is dropped here once instead of being re-checked by
	// every issue scan until this entry issues.
	pr1, pr2 := int64(-1), int64(-1)
	if !in.Src1.IsZero() {
		f |= flagSrc1
		if pr := p.regProducer[in.Src1]; pr >= 0 && p.doneAt[pr&p.robMask] > p.cycle {
			pr1 = pr
		}
	}
	if !in.Src2.IsZero() {
		f |= flagSrc2
		if pr := p.regProducer[in.Src2]; pr >= 0 && p.doneAt[pr&p.robMask] > p.cycle {
			pr2 = pr
		}
	}
	if !in.Dst.IsZero() {
		f |= flagDst
	}
	p.flags[idx] = f
	p.prod1[idx], p.prod2[idx] = pr1, pr2
	p.waiters[idx] = -1
	// Classify the entry for the issue scan. An unissued producer means the
	// entry's ready time is unknowable: chain it on that producer's waiter
	// list (wake re-examines it when the producer issues). Otherwise every
	// remaining producer has a scheduled completion, so the ready time is
	// simply their max — precompute it and make the entry scannable.
	if pr1 >= 0 && p.doneAt[pr1&p.robMask] == notDone {
		p.nextWaiter[idx] = p.waiters[pr1&p.robMask]
		p.waiters[pr1&p.robMask] = p.tail
	} else if pr2 >= 0 && p.doneAt[pr2&p.robMask] == notDone {
		p.nextWaiter[idx] = p.waiters[pr2&p.robMask]
		p.waiters[pr2&p.robMask] = p.tail
	} else {
		wa := int64(0)
		if pr1 >= 0 {
			wa = p.doneAt[pr1&p.robMask]
		}
		if pr2 >= 0 {
			if d := p.doneAt[pr2&p.robMask]; d > wa {
				wa = d
			}
		}
		p.wakeAt[idx] = wa
		p.scannable[idx>>6] |= 1 << uint(idx&63)
	}
	if !in.Dst.IsZero() {
		p.regProducer[in.Dst] = p.tail
	}
	if in.Kind.IsMem() {
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
