package pipeline

import (
	"testing"

	"waycache/internal/access"
	"waycache/internal/branch"
	"waycache/internal/cache"
	"waycache/internal/energy"
	"waycache/internal/isa"
	"waycache/internal/trace"
)

func testRig(dpol access.DPolicy, ipol access.IPolicy, src trace.WindowSource, maxInsts int64) *Pipeline {
	hier := cache.DefaultHierarchy(32)
	dc := access.NewDCache(access.DConfig{
		Policy:      dpol,
		Cache:       cache.Config{Name: "L1d", SizeBytes: 16 << 10, Ways: 4, BlockBytes: 32},
		BaseLatency: 1,
		Costs:       energy.PaperCosts(),
	}, hier)
	ic := access.NewICache(access.IConfig{
		Policy:      ipol,
		Cache:       cache.Config{Name: "L1i", SizeBytes: 16 << 10, Ways: 4, BlockBytes: 32},
		BaseLatency: 1,
		Costs:       energy.PaperCosts(),
	}, hier)
	return New(DefaultConfig(maxInsts), src, dc, ic, branch.NewFrontEnd())
}

// seqALUs builds n independent ALU instructions at consecutive PCs.
func seqALUs(n int) []trace.Inst {
	insts := make([]trace.Inst, n)
	for i := range insts {
		insts[i] = trace.Inst{
			PC:   0x400000 + uint64(i)*4,
			Kind: isa.KindIntALU,
			Dst:  isa.Int(i),
		}
	}
	return insts
}

func TestIndependentALUsSuperscalar(t *testing.T) {
	// One warm 8-instruction block of independent single-cycle ops looped
	// 1000 times on an 8-wide machine: IPC must be well above 1.
	src := &trace.Repeat{Insts: seqALUs(8)}
	p := testRig(access.DParallel, access.IParallel, src, 8000)
	st := p.Run()
	if st.Committed != 8000 {
		t.Fatalf("committed %d, want 8000", st.Committed)
	}
	if ipc := st.IPC(); ipc < 3 {
		t.Fatalf("IPC %.2f too low for independent ALU stream", ipc)
	}
}

func TestDependentChainSerializes(t *testing.T) {
	// A strict dependence chain cannot exceed IPC 1.
	n := 500
	insts := make([]trace.Inst, n)
	for i := range insts {
		insts[i] = trace.Inst{
			PC:   0x400000 + uint64(i)*4,
			Kind: isa.KindIntALU,
			Dst:  isa.Int(1),
			Src1: isa.Int(1),
		}
	}
	src := trace.NewMemSource(insts, trace.Header{})
	st := testRig(access.DParallel, access.IParallel, src, int64(n)).Run()
	if ipc := st.IPC(); ipc > 1.05 {
		t.Fatalf("IPC %.2f for a serial chain; scoreboard broken", ipc)
	}
}

func TestLoadLatencyExposedOnChains(t *testing.T) {
	// load -> use chains: sequential access (+1 cycle per load) must be
	// measurably slower than parallel access on the same trace.
	mk := func() trace.WindowSource {
		// A pointer-chase kernel: each load's address depends on the
		// previous load's result, so cache latency is fully serialized.
		ld := trace.Inst{PC: 0x400000, Kind: isa.KindLoad, Dst: isa.Int(1), Src1: isa.Int(1),
			Addr: 0x1000, BaseValue: 0x1000}
		use := trace.Inst{PC: 0x400004, Kind: isa.KindIntALU, Dst: isa.Int(1), Src1: isa.Int(1)}
		return &trace.Repeat{Insts: []trace.Inst{ld, use}}
	}
	base := testRig(access.DParallel, access.IParallel, mk(), 800).Run()
	seq := testRig(access.DSequential, access.IParallel, mk(), 800).Run()
	if seq.Cycles <= base.Cycles {
		t.Fatalf("sequential (%d cyc) not slower than parallel (%d cyc)", seq.Cycles, base.Cycles)
	}
	slowdown := float64(seq.Cycles-base.Cycles) / float64(base.Cycles)
	if slowdown < 0.2 {
		t.Fatalf("slowdown %.2f too small for fully dependent loads", slowdown)
	}
}

func TestBranchMispredictionStallsFetch(t *testing.T) {
	// Alternating branch outcomes with a *random* pattern are hard; every
	// misprediction should cost fetch cycles relative to an untaken run.
	mkBranches := func(taken func(i int) bool) trace.WindowSource {
		// The same static branch executed 300 times (a self-loop).
		var insts []trace.Inst
		for i := 0; i < 3000; i++ {
			insts = append(insts, trace.Inst{
				PC: 0x400000, Kind: isa.KindBranch,
				Taken: taken(i), Target: 0x400000,
			})
		}
		return trace.NewMemSource(insts, trace.Header{})
	}
	// Baseline: always not-taken (predictable, and fetch packs many
	// branches per group). Noisy: pseudo-random outcomes of the same
	// static branch. Run lengths amortize the one cold i-cache miss.
	steady := testRig(access.DParallel, access.IParallel, mkBranches(func(int) bool { return false }), 3000).Run()
	noisy := testRig(access.DParallel, access.IParallel, mkBranches(func(i int) bool {
		return (i*2654435761)%7 < 3 // deterministic pseudo-random pattern
	}), 3000).Run()
	if noisy.BranchMispred <= steady.BranchMispred {
		t.Fatalf("noisy pattern mispredicts (%d) not above steady (%d)",
			noisy.BranchMispred, steady.BranchMispred)
	}
	if noisy.Cycles <= steady.Cycles {
		t.Fatalf("mispredictions did not cost cycles: %d vs %d", noisy.Cycles, steady.Cycles)
	}
}

func TestROBLimitsOutstandingWork(t *testing.T) {
	// A long-latency load followed by many independent ALUs: the ROB (64)
	// caps how far the machine runs ahead, so cycles must reflect the miss.
	var insts []trace.Inst
	pc := uint64(0x400000)
	insts = append(insts, trace.Inst{PC: pc, Kind: isa.KindLoad, Dst: isa.Int(1),
		Addr: 0x10000, BaseValue: 0x10000})
	for i := 0; i < 300; i++ {
		pc += 4
		insts = append(insts, trace.Inst{PC: pc, Kind: isa.KindIntALU, Dst: isa.Int(2), Src1: isa.Int(2)})
	}
	st := testRig(access.DParallel, access.IParallel, trace.NewMemSource(insts, trace.Header{}), 301).Run()
	// The serial ALU chain takes ~300 cycles anyway; the cold miss (~108)
	// overlaps. Sanity: cycles >= chain length, and load+miss committed.
	if st.Cycles < 300 {
		t.Fatalf("cycles %d below serial chain bound", st.Cycles)
	}
	if st.Committed != 301 {
		t.Fatalf("committed %d", st.Committed)
	}
}

func TestStoresCommitThroughWriteBuffer(t *testing.T) {
	var insts []trace.Inst
	for i := 0; i < 8; i++ {
		insts = append(insts, trace.Inst{PC: uint64(0x400000 + i*4), Kind: isa.KindStore,
			Addr: uint64(0x1000 + (i%4)*8), BaseValue: uint64(0x1000 + (i%4)*8)})
	}
	p := testRig(access.DParallel, access.IParallel, &trace.Repeat{Insts: insts}, 2000)
	st := p.Run()
	if st.Stores < 2000 {
		t.Fatalf("stores issued %d, want >= 2000", st.Stores)
	}
	if st.Committed != 2000 {
		t.Fatalf("committed %d", st.Committed)
	}
	if ipc := st.IPC(); ipc < 2 {
		t.Fatalf("stores should not serialize commit: IPC %.2f", ipc)
	}
}

func TestRunStopsAtMaxInsts(t *testing.T) {
	src := &trace.Repeat{Insts: seqALUs(8)}
	st := testRig(access.DParallel, access.IParallel, src, 100).Run()
	if st.Committed != 100 {
		t.Fatalf("committed %d, want exactly MaxInsts", st.Committed)
	}
}

func TestSourceDrainEndsRun(t *testing.T) {
	src := trace.NewMemSource(seqALUs(17), trace.Header{})
	st := testRig(access.DParallel, access.IParallel, src, 1000).Run()
	if st.Committed != 17 {
		t.Fatalf("committed %d, want 17 (source drained)", st.Committed)
	}
}

func TestStatsAccounting(t *testing.T) {
	var insts []trace.Inst
	pc := uint64(0x400000)
	for i := 0; i < 50; i++ {
		insts = append(insts,
			trace.Inst{PC: pc, Kind: isa.KindLoad, Dst: isa.Int(1), Addr: 0x2000, BaseValue: 0x2000},
			trace.Inst{PC: pc + 4, Kind: isa.KindFPALU, Dst: isa.FP(1), Src1: isa.FP(1)},
			trace.Inst{PC: pc + 8, Kind: isa.KindStore, Addr: 0x3000, BaseValue: 0x3000, Src1: isa.Int(1)},
		)
		pc += 12
	}
	st := testRig(access.DParallel, access.IParallel, trace.NewMemSource(insts, trace.Header{}), 150).Run()
	if st.Loads != 50 || st.Stores != 50 || st.FPOps != 50 {
		t.Fatalf("op counts: %+v", st)
	}
	if st.Dispatched != 150 || st.Issued != 150 {
		t.Fatalf("dispatch/issue counts: %+v", st)
	}
	if st.RegWrites == 0 || st.RegReads == 0 {
		t.Fatal("register activity not counted")
	}
}

func TestDeterministicCycles(t *testing.T) {
	mk := func() *trace.MemSource { return trace.NewMemSource(seqALUs(500), trace.Header{}) }
	a := testRig(access.DSelDMWayPred, access.IWayPred, mk(), 500).Run()
	b := testRig(access.DSelDMWayPred, access.IWayPred, mk(), 500).Run()
	if a != b {
		t.Fatalf("nondeterministic pipeline: %+v vs %+v", a, b)
	}
}

func TestNonPowerOfTwoROBSize(t *testing.T) {
	// The ROB ring is allocated at the next power of two; the configured
	// size still bounds in-flight instructions. A 48-entry ROB must behave
	// like a 48-entry ROB, not a 64-entry one: fewer entries than the
	// 64-entry default means same-or-more cycles on a stalling workload.
	n := 600
	insts := make([]trace.Inst, n)
	for i := range insts {
		addr := uint64(0x100000 + i*4096) // L1-missing loads to fill the ROB
		insts[i] = trace.Inst{
			PC: 0x400000 + uint64(i)*4, Kind: isa.KindLoad,
			Addr: addr, BaseValue: addr - 8, Offset: 8,
			Dst: isa.Int(i % 30), Src1: isa.Int((i + 1) % 30),
		}
	}
	run := func(robSize int) Stats {
		cfg := DefaultConfig(int64(n))
		cfg.ROBSize = robSize
		src := trace.NewMemSource(insts, trace.Header{})
		hier := cache.DefaultHierarchy(32)
		dc := access.NewDCache(access.DConfig{
			Policy: access.DParallel,
			Cache:  cache.Config{Name: "L1d", SizeBytes: 16 << 10, Ways: 4, BlockBytes: 32},
			Costs:  energy.PaperCosts(),
		}, hier)
		ic := access.NewICache(access.IConfig{
			Policy: access.IParallel,
			Cache:  cache.Config{Name: "L1i", SizeBytes: 16 << 10, Ways: 4, BlockBytes: 32},
		}, hier)
		return New(cfg, src, dc, ic, branch.NewFrontEnd()).Run()
	}
	s48, s64 := run(48), run(64)
	if s48.Committed != int64(n) || s64.Committed != int64(n) {
		t.Fatalf("committed %d / %d, want %d", s48.Committed, s64.Committed, n)
	}
	if s48.Cycles < s64.Cycles {
		t.Fatalf("48-entry ROB finished in %d cycles, faster than 64-entry's %d", s48.Cycles, s64.Cycles)
	}
	// Determinism across repeat runs, ring size notwithstanding.
	if again := run(48); again != s48 {
		t.Fatalf("non-power-of-two ROB nondeterministic: %+v vs %+v", again, s48)
	}
}
