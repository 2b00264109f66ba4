package trace

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"waycache/internal/isa"
)

// countingGen hands out sources over one fixed stream and counts how many
// it handed out: each is one capture build.
type countingGen struct {
	insts  []Inst
	builds atomic.Int32
}

func (g *countingGen) gen() Source {
	g.builds.Add(1)
	return pull{NewMemSource(g.insts, Header{})}
}

// captureBytes is the exact resident size of a capture of arenaInsts(n):
// each static is seen once, so it is a fixed static with no delta or
// wide word, with its nextMem and nextFixed entries (plus the closing
// ones), and all are one run (plus the terminating one).
func captureBytes(n int) int64 {
	return int64(n)*recordBytes + 2*int64(n+1)*nextMemBytes + 2*runBytes
}

// captured returns the capture a's Capture returned, failing t if it
// streamed instead.
func captured(t *testing.T, a *Arena, h Header, gen func() Source) *MemSource {
	t.Helper()
	src, ok := a.Capture(h, gen).(*MemSource)
	if !ok {
		t.Fatalf("a %d-instruction request was streamed, not captured", h.Insts)
	}
	return src
}

func capture(t *testing.T, a *Arena, g *countingGen, seed uint64, n int64) []Inst {
	t.Helper()
	src := captured(t, a, Header{Benchmark: "gen", Seed: seed, Insts: n}, g.gen)
	if h := src.Header(); h.Benchmark != "gen" || h.Seed != seed || h.Insts < n {
		t.Fatalf("capture header %+v, want gen, seed %d, at least %d instructions", h, seed, n)
	}
	return drain(NewLimit(src, n))
}

func TestArenaCaptureGrowsOnce(t *testing.T) {
	g := &countingGen{insts: arenaInsts(400)}
	a := NewArena(0)

	short := capture(t, a, g, 1, 100)
	if !slices.Equal(short, g.insts[:100]) {
		t.Fatal("100-instruction capture differs from the generator's stream")
	}
	if got := capture(t, a, g, 1, 50); !slices.Equal(got, g.insts[:50]) || g.builds.Load() != 1 {
		t.Fatalf("a shorter request rebuilt the capture (%d builds) or replayed other instructions", g.builds.Load())
	}
	long := capture(t, a, g, 1, 300)
	if g.builds.Load() != 2 {
		t.Fatalf("a longer request made %d builds in all, want 2", g.builds.Load())
	}
	if !slices.Equal(long[:100], short) || !slices.Equal(long, g.insts[:300]) {
		t.Fatal("the grown capture does not replay the first 100 instructions unchanged")
	}
	capture(t, a, g, 1, 200)
	if g.builds.Load() != 2 {
		t.Fatalf("a request within the grown capture rebuilt it (%d builds)", g.builds.Load())
	}
	if a.Len() != 1 || a.Resident() != 300 || a.ResidentBytes() != captureBytes(300) {
		t.Fatalf("arena holds %d entries, %d instructions, %d bytes; want the grown capture alone: 1, 300, %d",
			a.Len(), a.Resident(), a.ResidentBytes(), captureBytes(300))
	}
}

func TestArenaCaptureConcurrentBuildsOnce(t *testing.T) {
	g := &countingGen{insts: arenaInsts(300)}
	a := NewArena(0)
	var wg sync.WaitGroup
	srcs := make([]*MemSource, 16)
	for i := range srcs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src, ok := a.Capture(Header{Benchmark: "gen", Insts: 300}, g.gen).(*MemSource)
			if !ok {
				t.Error("a 300-instruction request was streamed, not captured")
				return
			}
			srcs[i] = src
			if got := drain(src); !slices.Equal(got, g.insts) {
				t.Errorf("concurrent replay %d differs from the generator's stream", i)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if g.builds.Load() != 1 {
		t.Fatalf("16 concurrent first requests made %d builds, want 1", g.builds.Load())
	}
	for _, s := range srcs[1:] {
		if s.t != srcs[0].t {
			t.Fatal("concurrent requests built independent tables")
		}
	}
	if a.ResidentBytes() != captureBytes(300) {
		t.Fatalf("ResidentBytes %d, want %d (double-counted?)", a.ResidentBytes(), captureBytes(300))
	}
}

func TestArenaCaptureEvictedRebuilds(t *testing.T) {
	g := &countingGen{insts: arenaInsts(100)}
	a := NewArena(3 * captureBytes(100) / 2) // room for one capture, not two

	first := capture(t, a, g, 1, 100)
	capture(t, a, g, 2, 100) // another key: evicts the first
	if a.Len() != 1 || a.ResidentBytes() != captureBytes(100) {
		t.Fatalf("arena holds %d entries, %d bytes; want one capture of %d bytes", a.Len(), a.ResidentBytes(), captureBytes(100))
	}
	again := capture(t, a, g, 1, 100)
	if g.builds.Load() != 3 {
		t.Fatalf("%d builds, want 3: the evicted capture must be rebuilt", g.builds.Load())
	}
	if !slices.Equal(again, first) {
		t.Fatal("the rebuilt capture replays differently")
	}
}

// TestCaptureFixesConstantAddresses: a capture keeps the memory statics
// that only ever take one address as fixed statics without deltas, and
// replays every stream, fixed, moving and escaped addresses alike,
// exactly as it went in.
func TestCaptureFixesConstantAddresses(t *testing.T) {
	const iters = 100
	var insts []Inst
	for i := range iters {
		moving := uint64(0x8000 + 8*i)
		insts = append(insts,
			Inst{PC: 0x1000, Kind: isa.KindLoad, Dst: 1, Src1: 2, Addr: 0x60_0000, BaseValue: 0x60_0000 - 4, Offset: 4},
			Inst{PC: 0x1004, Kind: isa.KindStore, Src1: 2, Src2: 1, Addr: moving, BaseValue: moving},
			Inst{PC: 0x1008, Kind: isa.KindBranch, Taken: true, Target: 0x1000},
		)
	}
	tb := captureTable(pull{NewMemSource(insts, Header{})}, len(insts))
	if len(tb.deltas) != iters || len(tb.statics) != 3 || tb.statics[0].meta&recFixed == 0 || tb.statics[1].meta&recFixed != 0 {
		t.Fatalf("capture holds %d deltas over statics %+v; want only the store's %d, the load fixed", len(tb.deltas), tb.statics, iters)
	}
	rng := rand.New(rand.NewSource(5))
	for name, insts := range map[string][]Inst{
		"constant and moving": insts,
		"shared statics":      sharedInsts(rng, 4*expandRun+77),
		"address deltas":      deltaEdgeInsts(3*len(deltaEdges) + 2*expandRun/7),
	} {
		tb := captureTable(pull{NewMemSource(insts, Header{})}, len(insts))
		if got := drain(newMemSource(&tb, Header{}, nil)); !slices.Equal(got, insts) {
			t.Errorf("%s: capture replays differently", name)
		}
	}
}

func TestArenaCaptureCountsInResident(t *testing.T) {
	a := NewArena(0)
	capture(t, a, &countingGen{insts: arenaInsts(100)}, 1, 100)
	if a.Resident() != 100 || a.ResidentBytes() != captureBytes(100) {
		t.Fatalf("resident %d instructions, %d bytes; want 100, %d", a.Resident(), a.ResidentBytes(), captureBytes(100))
	}
}

// TestArenaCaptureStreamsWhatItCannotHold: a request longer than a table
// numbers, or past the arena's share for one capture, is generated as it
// is read. Nothing is built, cached or charged, and the request takes no
// memory in proportion to its length.
func TestArenaCaptureStreamsWhatItCannotHold(t *testing.T) {
	g := &countingGen{insts: arenaInsts(300)}
	for _, c := range []struct{ capBytes, insts int64 }{
		{DefaultArenaCap, 4_000_000_000},
		{0, maxCaptureInsts + 1},
		{captureShare * captureInstBytes * 299, 300},
	} {
		a := NewArena(c.capBytes)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		src := a.Capture(Header{Benchmark: "gen", Insts: c.insts}, g.gen)
		got := drain(NewLimit(src, c.insts))
		runtime.ReadMemStats(&after)
		if _, ok := src.(*MemSource); ok || !slices.Equal(got, g.insts) {
			t.Errorf("cap %d, %d instructions: captured, or streamed other instructions", c.capBytes, c.insts)
		}
		if a.Len() != 0 || a.ResidentBytes() != 0 {
			t.Errorf("cap %d, %d instructions: the arena holds %d entries, %d bytes", c.capBytes, c.insts, a.Len(), a.ResidentBytes())
		}
		if took := after.TotalAlloc - before.TotalAlloc; took > 1<<20 {
			t.Errorf("cap %d, %d instructions: the request allocated %d bytes", c.capBytes, c.insts, took)
		}
	}
	captured(t, NewArena(captureShare*captureInstBytes*300), Header{Insts: 300}, g.gen)
}
