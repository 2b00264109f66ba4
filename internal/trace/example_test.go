package trace_test

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"waycache/internal/isa"
	"waycache/internal/trace"
)

// ExampleWriter captures a three-instruction stream into the on-disk trace
// format and replays it, demonstrating a lossless round trip.
func ExampleWriter() {
	insts := []trace.Inst{
		{PC: 0x1000, Kind: isa.KindLoad, Dst: 1,
			Addr: 0x60_0008, BaseValue: 0x60_0000, Offset: 8},
		{PC: 0x1004, Kind: isa.KindIntALU, Dst: 2, Src1: 1},
		{PC: 0x1008, Kind: isa.KindBranch, Src1: 2, Taken: true, Target: 0x1000},
	}

	dir, err := os.MkdirTemp("", "trace-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "demo"+trace.FileExt)
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	w, err := trace.NewWriter(f, trace.Header{
		Benchmark: "demo", Seed: 42, Insts: int64(len(insts)),
	})
	if err != nil {
		log.Fatal(err)
	}
	for i := range insts {
		if err := w.Write(&insts[i]); err != nil {
			log.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}

	src, err := trace.NewArena(0).Load(path)
	if err != nil {
		log.Fatal(err)
	}
	h := src.Header()
	fmt.Printf("%s seed=%d insts=%d\n", h.Benchmark, h.Seed, h.Insts)
	for win := src.Window(); len(win) > 0; win = src.Window() {
		for _, in := range win {
			fmt.Printf("%#x %s\n", in.PC, in.Kind)
		}
		src.Advance(len(win))
	}
	if src.Err() != nil {
		log.Fatal(src.Err())
	}
	// Output:
	// demo seed=42 insts=3
	// 0x1000 load
	// 0x1004 ialu
	// 0x1008 br
}

// generator is a Next-only Source over a slice, standing in for a live
// workload walker.
type generator []trace.Inst

func (g *generator) Next(out *trace.Inst) bool {
	if len(*g) == 0 {
		return false
	}
	*out, *g = (*g)[0], (*g)[1:]
	return true
}

// ExampleArena_Load captures a generator's stream to a .wct file and
// replays it. A replay is a trace.WindowSource, read a fetch window at a
// time, exactly as a live generator behind trace.Windowed is: any
// consumer (the pipeline, core.Run, the sweep engine) runs identically
// from either.
func ExampleArena_Load() {
	dir, err := os.MkdirTemp("", "trace-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "demo"+trace.FileExt)
	gen := &generator{
		{PC: 0x2000, Kind: isa.KindLoad, Dst: 1, Addr: 0x60_0000, BaseValue: 0x60_0000},
		{PC: 0x2004, Kind: isa.KindStore, Src2: 1, Addr: 0x70_0000, BaseValue: 0x70_0000},
	}
	if err := trace.CaptureFile(path, trace.Header{Benchmark: "demo", Insts: 2}, gen); err != nil {
		log.Fatal(err)
	}

	// Vet the capture by its header alone, then decode it once.
	h, err := trace.ReadHeader(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d instructions\n", h.Benchmark, h.Insts)
	src, err := trace.NewArena(0).Load(path)
	if err != nil {
		log.Fatal(err)
	}
	var replay trace.WindowSource = src
	for win := replay.Window(); len(win) > 0; win = replay.Window() {
		in := win[0]
		fmt.Printf("%s addr=%#x\n", in.Kind, in.Addr)
		replay.Advance(1)
	}
	if src.Err() != nil {
		log.Fatal(src.Err())
	}
	// Output:
	// demo: 2 instructions
	// load addr=0x600000
	// store addr=0x700000
}
