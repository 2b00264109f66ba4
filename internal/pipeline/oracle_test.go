package pipeline

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"waycache/internal/access"
	"waycache/internal/branch"
	"waycache/internal/cache"
	"waycache/internal/energy"
	"waycache/internal/isa"
	"waycache/internal/trace"
	"waycache/internal/workload"
)

// This file holds the differential oracle for the event-driven core: a
// verbatim copy of the pre-event-driven cycle-stepping scheduler
// (referenceRun below), kept test-only, and a property test that runs both
// schedulers over randomized machines, workloads and d-cache policies and
// requires bit-identical Stats. The event-driven core's claim is
// observational equivalence — fast-forward, the issue wake-time wheel and
// batched fetch may reorder *work inside the simulator*, never *events
// inside the simulated machine* — and this is the test that pins the claim
// beyond the fixed golden configurations. TestOracleFarWakes covers the
// wheel's horizon, which no model latency reaches.

// refEntry is the reference scheduler's array-of-structs ROB entry.
type refEntry struct {
	issued  bool
	done    bool
	mispred bool
	doneAt  int64
	prod1   int64
	prod2   int64
	seq     int64
	inst    trace.Inst
}

// reference is the old Pipeline, scheduling logic untouched: one
// commit/issue/fetch step per cycle, producer readiness re-derived from
// the ROB on every scan, instructions pulled one Next call at a time. It
// shares the model code (caches, predictors, front end) with the real
// core, so any Stats divergence is a scheduling bug, not a model drift.
type reference struct {
	cfg Config
	src trace.Source
	dc  access.DController
	ic  *access.ICache
	fe  *branch.FrontEnd

	stats Stats
	cycle int64

	rob         []refEntry
	robMask     int64
	head        int64
	tail        int64
	issueCursor int64
	lsq         int

	regProducer [isa.NumRegs]int64

	pending     trace.Inst
	pendingOK   bool
	exhausted   bool
	fetchableAt int64
	waitBranch  int64
	icBlockMask uint64

	nextWay access.WayPred
}

// referenceRun simulates cfg over src with the cycle-stepping scheduler
// and returns its Stats. It is the oracle the event-driven Pipeline.Run is
// compared against.
func referenceRun(cfg Config, src trace.Source, dc access.DController, ic *access.ICache, fe *branch.FrontEnd) Stats {
	ringSize := int64(1)
	for ringSize < int64(cfg.ROBSize) {
		ringSize <<= 1
	}
	r := &reference{
		cfg: cfg, src: src, dc: dc, ic: ic, fe: fe,
		rob:         make([]refEntry, ringSize),
		robMask:     ringSize - 1,
		waitBranch:  -1,
		icBlockMask: ^uint64(ic.L1.BlockBytes() - 1),
	}
	for i := range r.regProducer {
		r.regProducer[i] = -1
	}
	limit := cfg.MaxInsts*200 + 1_000_000
	for r.stats.Committed < cfg.MaxInsts && r.cycle < limit {
		r.commit()
		r.issue()
		r.fetch()
		r.cycle++
		r.stats.Cycles = r.cycle
		if r.exhausted && r.head == r.tail {
			break
		}
	}
	if r.cycle >= limit {
		panic("reference: cycle limit exceeded — livelock")
	}
	return r.stats
}

func (r *reference) entry(seq int64) *refEntry {
	return &r.rob[seq&r.robMask]
}

func (r *reference) commit() {
	for n := 0; n < r.cfg.CommitWidth && r.head < r.tail &&
		r.stats.Committed < r.cfg.MaxInsts; n++ {
		e := r.entry(r.head)
		if !e.done || e.doneAt > r.cycle {
			return
		}
		if e.inst.Kind == isa.KindStore {
			r.dc.Store(&e.inst)
			r.lsq--
		}
		if e.inst.Kind == isa.KindLoad {
			r.lsq--
		}
		if d := e.inst.Dst; !d.IsZero() && r.regProducer[d] == e.seq {
			r.regProducer[d] = -1
		}
		r.head++
		r.stats.Committed++
	}
}

func (r *reference) producerDone(seq int64) bool {
	if seq < r.head {
		return true
	}
	e := r.entry(seq)
	return e.done && e.doneAt <= r.cycle
}

func (r *reference) issue() {
	issued := 0
	ports := r.cfg.DCachePorts
	if r.issueCursor < r.head {
		r.issueCursor = r.head
	}
	for r.issueCursor < r.tail && r.entry(r.issueCursor).issued {
		r.issueCursor++
	}
	for seq := r.issueCursor; seq < r.tail && issued < r.cfg.IssueWidth; seq++ {
		e := r.entry(seq)
		if e.issued {
			continue
		}
		if !r.producerDone(e.prod1) || !r.producerDone(e.prod2) {
			continue
		}
		kind := e.inst.Kind
		if kind == isa.KindLoad && ports == 0 {
			continue
		}

		lat := kind.Latency()
		switch kind {
		case isa.KindLoad:
			ports--
			r.stats.Loads++
			cacheLat, _ := r.dc.Load(&e.inst)
			lat += cacheLat - 1
		case isa.KindStore:
			r.stats.Stores++
		case isa.KindIntALU, isa.KindIntMul:
			r.stats.IntOps++
		case isa.KindFPALU, isa.KindFPMul, isa.KindFPDiv:
			r.stats.FPOps++
		}
		e.issued = true
		e.done = true
		e.doneAt = r.cycle + int64(lat)
		issued++
		r.stats.Issued++
		if !e.inst.Src1.IsZero() {
			r.stats.RegReads++
		}
		if !e.inst.Src2.IsZero() {
			r.stats.RegReads++
		}
		if !e.inst.Dst.IsZero() {
			r.stats.RegWrites++
		}

		if e.mispred && r.waitBranch == e.seq {
			r.fetchableAt = e.doneAt + 1
			r.waitBranch = -1
		}
	}
}

func (r *reference) peek() bool {
	if r.pendingOK {
		return true
	}
	if r.exhausted {
		return false
	}
	if !r.src.Next(&r.pending) {
		r.exhausted = true
		return false
	}
	r.pendingOK = true
	return true
}

func (r *reference) robFull() bool {
	return r.tail-r.head >= int64(r.cfg.ROBSize)
}

func (r *reference) dispatch(in *trace.Inst, mispred bool) {
	e := r.entry(r.tail)
	*e = refEntry{inst: *in, seq: r.tail, prod1: -1, prod2: -1, mispred: mispred}
	if !in.Src1.IsZero() {
		e.prod1 = r.regProducer[in.Src1]
	}
	if !in.Src2.IsZero() {
		e.prod2 = r.regProducer[in.Src2]
	}
	if !in.Dst.IsZero() {
		r.regProducer[in.Dst] = r.tail
	}
	if in.Kind.IsMem() {
		r.lsq++
	}
	if mispred {
		r.waitBranch = r.tail
	}
	r.tail++
	r.stats.Dispatched++
}

func (r *reference) fetch() {
	if r.cycle < r.fetchableAt || r.waitBranch >= 0 {
		return
	}
	if !r.peek() {
		return
	}
	if r.robFull() || r.lsq >= r.cfg.LSQSize {
		return
	}

	block := r.pending.PC & r.icBlockMask

	lat, _, trueWay := r.ic.Fetch(r.pending.PC, r.nextWay)
	r.stats.FetchGroups++

	r.fe.TrainWays(trueWay)

	endedByControl := false
	for n := 0; n < r.cfg.FetchWidth; n++ {
		if r.robFull() || r.lsq >= r.cfg.LSQSize {
			break
		}
		if !r.peek() {
			break
		}
		if r.pending.PC&r.icBlockMask != block {
			break
		}
		in := &r.pending
		r.pendingOK = false

		if !in.Kind.IsControl() {
			r.dispatch(in, false)
			continue
		}
		endedByControl = true
		stop := r.fetchControl(in, block, trueWay)
		if stop {
			break
		}
		endedByControl = false
	}

	if !endedByControl {
		way, ok := r.fe.SAWP.Lookup(block)
		r.nextWay = access.WayPred{Way: way, OK: ok, Source: access.SrcSAWP}
		r.fe.NoteSAWP(block)
	}

	if lat < 1 {
		lat = 1
	}
	r.fetchableAt = r.cycle + int64(lat)
}

func (r *reference) fetchControl(in *trace.Inst, block uint64, blockWay int) bool {
	fe := r.fe
	switch in.Kind {
	case isa.KindBranch:
		r.stats.Branches++
		predTaken := fe.Dir.Predict(in.PC)
		fe.Dir.Update(in.PC, in.Taken)
		mispred := predTaken != in.Taken
		if mispred {
			r.stats.BranchMispred++
		}
		if in.Taken {
			fe.NoteBTB(in.PC, in.Target)
		}
		r.dispatch(in, mispred)
		if mispred {
			r.nextWay = access.WayPred{}
			return true
		}
		if in.Taken {
			_, way, wayOK, hit := fe.BTB.Lookup(in.PC)
			if hit && wayOK {
				r.nextWay = access.WayPred{Way: way, OK: true, Source: access.SrcBTB}
			} else {
				r.nextWay = access.WayPred{}
			}
			return true
		}
		return false

	case isa.KindJump, isa.KindCall:
		r.stats.Branches++
		_, way, wayOK, hit := fe.BTB.Lookup(in.PC)
		if hit && wayOK {
			r.nextWay = access.WayPred{Way: way, OK: true, Source: access.SrcBTB}
		} else {
			r.nextWay = access.WayPred{}
		}
		fe.NoteBTB(in.PC, in.Target)
		if in.Kind == isa.KindCall {
			ret := in.FallThrough()
			sameBlock := ret&r.icBlockMask == block
			fe.RAS.Push(ret, blockWay, sameBlock)
		}
		r.dispatch(in, false)
		return true

	case isa.KindReturn:
		r.stats.Branches++
		addr, way, wayOK, ok := fe.RAS.Pop()
		mispred := !ok || addr != in.Target
		if mispred {
			r.stats.RASMispred++
			r.stats.BranchMispred++
		}
		r.dispatch(in, mispred)
		if mispred {
			r.nextWay = access.WayPred{}
			return true
		}
		if wayOK {
			r.nextWay = access.WayPred{Way: way, OK: true, Source: access.SrcRAS}
		} else {
			r.nextWay = access.WayPred{}
		}
		return true
	}
	panic("reference: non-control kind in fetchControl")
}

// sliceSource pulls a materialized stream one instruction at a time, as
// a live walker produces it: the reference scheduler's feed, and the
// Next-only producer trace.Windowed buffers for the pipeline.
type sliceSource struct{ insts []trace.Inst }

func (s *sliceSource) Next(out *trace.Inst) bool {
	if len(s.insts) == 0 {
		return false
	}
	*out, s.insts = s.insts[0], s.insts[1:]
	return true
}

// oracleRig builds one matched pair of model state for a trial. Both
// schedulers must see freshly constructed, identically configured caches
// and predictors: they are stateful, and sharing them would let one run
// warm the other.
func oracleRig(policy access.DPolicy, dsize, isize int) (access.DController, *access.ICache, *branch.FrontEnd) {
	hier := cache.DefaultHierarchy(32)
	dc := access.NewDCache(access.DConfig{
		Policy: policy,
		Cache:  cache.Config{Name: "L1d", SizeBytes: dsize, Ways: 4, BlockBytes: 32},
		Costs:  energy.PaperCosts(),
	}, hier)
	ic := access.NewICache(access.IConfig{
		Policy: access.IWayPred,
		Cache:  cache.Config{Name: "L1i", SizeBytes: isize, Ways: 4, BlockBytes: 32},
		Costs:  energy.PaperCosts(),
	}, hier)
	return dc, ic, branch.NewFrontEnd()
}

// TestOracleEquivalence is the differential property test: random machine
// shapes (including non-power-of-two ROBs and single-entry LSQs and
// ports) × every d-cache policy × real workload streams, event-driven
// Stats must equal the cycle-stepping reference's exactly — through a
// Next-only source behind trace.Buffered, the windowed path, and a .wct
// capture replay.
func TestOracleEquivalence(t *testing.T) {
	policies := []access.DPolicy{
		access.DParallel, access.DSequential,
		access.DWayPredPC, access.DWayPredXOR,
		access.DSelDMParallel, access.DSelDMWayPred, access.DSelDMSequential,
		access.DWayPredMRU,
	}
	names := workload.Names()
	rng := rand.New(rand.NewSource(0x5eed))

	trial := 0
	for _, policy := range policies {
		for rep := 0; rep < 3; rep++ {
			trial++
			cfg := Config{
				FetchWidth:  1 + rng.Intn(8),
				IssueWidth:  1 + rng.Intn(8),
				CommitWidth: 1 + rng.Intn(8),
				ROBSize:     2 + rng.Intn(99), // mostly non-power-of-two
				LSQSize:     1 + rng.Intn(40),
				DCachePorts: 1 + rng.Intn(3),
				MaxInsts:    int64(1000 + rng.Intn(3000)),
			}
			bench := names[trial%len(names)]
			prog, err := workload.ByName(bench)
			if err != nil {
				t.Fatal(err)
			}

			// Materialize the stream once so every scheduler and source
			// shape consumes the identical sequence. Every third trial the
			// stream is shorter than MaxInsts, exercising the drain path.
			n := cfg.MaxInsts + 300
			if trial%3 == 0 {
				n = cfg.MaxInsts - int64(rng.Intn(500))
			}
			insts := make([]trace.Inst, n)
			w := prog.NewWalker()
			for i := range insts {
				if !w.Next(&insts[i]) {
					t.Fatalf("%s: walker dried up at %d", bench, i)
				}
			}
			sizes := []int{4 << 10, 8 << 10, 16 << 10}
			dsize := sizes[rng.Intn(len(sizes))]
			isize := sizes[rng.Intn(len(sizes))]

			// A live walker reaches the pipeline through trace.Buffered; a
			// random buffer size lands window refills at arbitrary stream
			// offsets, and the first trial pins 1-instruction windows.
			bufCap := 1 + rng.Intn(64)
			if trial == 1 {
				bufCap = 1
			}

			dc, ic, fe := oracleRig(policy, dsize, isize)
			want := referenceRun(cfg, &sliceSource{insts}, dc, ic, fe)
			run := func(src trace.WindowSource) Stats {
				dc, ic, fe := oracleRig(policy, dsize, isize)
				return New(cfg, src, dc, ic, fe).Run()
			}
			ctx := func(leg string) string {
				return leg + " policy=" + policy.String() + " bench=" + bench
			}
			if got := run(trace.Windowed(&sliceSource{insts}, bufCap)); got != want {
				t.Errorf("%s (buffer %d):\n got %+v\nwant %+v\ncfg %+v", ctx("next-path"), bufCap, got, want, cfg)
			}
			if got := run(trace.NewLimit(trace.NewMemSource(insts, trace.Header{}), n)); got != want {
				t.Errorf("%s:\n got %+v\nwant %+v\ncfg %+v", ctx("window-path"), got, want, cfg)
			}
			if trial%4 == 0 {
				if got := run(replaySource(t, bench, insts)); got != want {
					t.Errorf("%s:\n got %+v\nwant %+v\ncfg %+v", ctx("replay-path"), got, want, cfg)
				}
			}
		}
	}
}

// replaySource round-trips insts through an actual .wct capture file and
// the shared decode arena — the exact production replay path (MemSource
// behind a Limit).
func replaySource(t *testing.T, bench string, insts []trace.Inst) trace.WindowSource {
	t.Helper()
	path := filepath.Join(t.TempDir(), bench+".wct")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewWriter(f, trace.Header{Benchmark: bench, Insts: int64(len(insts))})
	if err != nil {
		t.Fatal(err)
	}
	for i := range insts {
		if err := w.Write(&insts[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	mem, err := trace.SharedArena().Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return trace.NewLimit(mem, int64(len(insts)))
}

// slowLoads wraps a real d-cache controller and adds extra cycles to every
// every-th load, so dependents wake past the issue wheel's horizon.
type slowLoads struct {
	access.DController
	every, extra, n int
}

func (s *slowLoads) Load(in *trace.Inst) (int, access.LoadClass) {
	lat, class := s.DController.Load(in)
	if s.n++; s.n%s.every == 0 {
		lat += s.extra
	}
	return lat, class
}

// TestOracleFarWakes drives the event-driven core through wakes at, just
// past and far past the issue wheel's wheelSize-cycle horizon, on ROBs up
// to four bitmap words wide, and requires the cycle-stepping reference's
// Stats exactly. No model latency reaches the horizon, so only a stretched
// d-cache exercises the far re-file.
func TestOracleFarWakes(t *testing.T) {
	names := workload.Names()
	rng := rand.New(rand.NewSource(0xfa7))
	trial := 0
	for _, extra := range []int{200, 255, 256, 257, 300, 1000, 5000} {
		for rep := 0; rep < 2; rep++ {
			trial++
			rob := 2 + rng.Intn(127)
			if rep == 0 {
				rob = 129 + rng.Intn(72) // a 256-slot ring: four bitmap words
			}
			cfg := Config{
				FetchWidth:  1 + rng.Intn(8),
				IssueWidth:  1 + rng.Intn(8),
				CommitWidth: 1 + rng.Intn(8),
				ROBSize:     rob,
				LSQSize:     1 + rng.Intn(40),
				DCachePorts: 1 + rng.Intn(3),
				MaxInsts:    int64(500 + rng.Intn(1000)),
			}
			// Sparser slow loads for longer delays keep the reference's
			// cycle-stepping run short.
			every := 1 + rng.Intn(4) + extra/200
			bench := names[trial%len(names)]
			prog, err := workload.ByName(bench)
			if err != nil {
				t.Fatal(err)
			}
			insts := make([]trace.Inst, cfg.MaxInsts+100)
			w := prog.NewWalker()
			for i := range insts {
				w.Next(&insts[i])
			}
			policy := access.DPolicy(rng.Intn(int(access.DWayPredMRU) + 1))
			rig := func() (access.DController, *access.ICache, *branch.FrontEnd) {
				dc, ic, fe := oracleRig(policy, 8<<10, 8<<10)
				return &slowLoads{DController: dc, every: every, extra: extra}, ic, fe
			}
			dc, ic, fe := rig()
			want := referenceRun(cfg, &sliceSource{insts}, dc, ic, fe)
			dc, ic, fe = rig()
			got := New(cfg, trace.NewMemSource(insts, trace.Header{}), dc, ic, fe).Run()
			if got != want {
				t.Errorf("extra=%d every=%d policy=%s bench=%s:\n got %+v\nwant %+v\ncfg %+v",
					extra, every, policy, bench, got, want, cfg)
			}
		}
	}
}
