package trace_test

import (
	"bytes"
	"fmt"
	"log"

	"waycache/internal/isa"
	"waycache/internal/trace"
)

// ExampleWriter captures a three-instruction stream into the on-disk trace
// format and reads it back, demonstrating a lossless round trip.
func ExampleWriter() {
	insts := []trace.Inst{
		{PC: 0x1000, Kind: isa.KindLoad, Dst: 1,
			Addr: 0x60_0008, BaseValue: 0x60_0000, Offset: 8},
		{PC: 0x1004, Kind: isa.KindIntALU, Dst: 2, Src1: 1},
		{PC: 0x1008, Kind: isa.KindBranch, Src1: 2, Taken: true, Target: 0x1000},
	}

	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{
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

	r, err := trace.NewReader(&buf)
	if err != nil {
		log.Fatal(err)
	}
	h := r.Header()
	fmt.Printf("%s seed=%d insts=%d\n", h.Benchmark, h.Seed, h.Insts)
	var in trace.Inst
	for r.Next(&in) {
		fmt.Printf("%#x %s\n", in.PC, in.Kind)
	}
	if r.Err() != nil {
		log.Fatal(r.Err())
	}
	// Output:
	// demo seed=42 insts=3
	// 0x1000 load
	// 0x1004 ialu
	// 0x1008 br
}

// ExampleReader replays a captured trace as a trace.Source: any consumer
// of the Source interface (the pipeline, core.Run, the sweep engine) runs
// identically from a file or a live generator.
func ExampleReader() {
	// Capture a little stream to a buffer (stand-in for a .wct file).
	var buf bytes.Buffer
	src := trace.NewMemSource([]trace.Inst{
		{PC: 0x2000, Kind: isa.KindLoad, Dst: 1, Addr: 0x60_0000, BaseValue: 0x60_0000},
		{PC: 0x2004, Kind: isa.KindStore, Src2: 1, Addr: 0x70_0000, BaseValue: 0x70_0000},
	}, trace.Header{})
	if _, err := trace.Capture(&buf, trace.Header{Benchmark: "demo", Insts: 2}, src); err != nil {
		log.Fatal(err)
	}

	r, err := trace.NewReader(&buf)
	if err != nil {
		log.Fatal(err)
	}
	var replayed trace.Source = r // a Reader is a Source
	var in trace.Inst
	for replayed.Next(&in) {
		fmt.Printf("%s addr=%#x\n", in.Kind, in.Addr)
	}
	if r.Err() != nil {
		log.Fatal(r.Err())
	}
	// Output:
	// load addr=0x600000
	// store addr=0x700000
}
