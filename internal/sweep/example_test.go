package sweep_test

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"waycache/internal/access"
	"waycache/internal/sweep"
	"waycache/internal/trace"
	"waycache/internal/tracestore"
	"waycache/internal/workload"
)

// ExampleEngine_replay files a benchmark's captured instruction stream in
// a content-addressed trace store, then runs the same sweep twice — once
// from the benchmark's own stream, once replaying the stored capture by
// reference through Grid.TraceRefs and Options.TraceStore — and shows the
// two produce byte-identical records.
func ExampleEngine_replay() {
	const bench = "gcc"
	const insts = 20_000

	// Capture and store: what `tracegen -bench gcc -n 20000 -capture
	// -store DIR` does.
	dir, err := os.MkdirTemp("", "traces")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	p, err := workload.ByName(bench)
	if err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(dir, bench+trace.FileExt)
	if err := p.CaptureFile(path, insts); err != nil {
		log.Fatal(err)
	}
	store, err := tracestore.Open(filepath.Join(dir, "store"))
	if err != nil {
		log.Fatal(err)
	}
	hash, _, err := store.PutFile(path)
	if err != nil {
		log.Fatal(err)
	}

	g := sweep.Grid{
		Benchmarks: []string{bench},
		DPolicies:  []access.DPolicy{access.DParallel, access.DSelDMWayPred},
		Insts:      insts,
	}
	ctx := context.Background()

	walked, err := sweep.New(sweep.Options{Workers: 2}).Run(ctx, g)
	if err != nil {
		log.Fatal(err)
	}
	g.TraceRefs = map[string]string{bench: trace.FormatRef(hash)}
	replayed, err := sweep.New(sweep.Options{Workers: 2, TraceStore: store}).Run(ctx, g)
	if err != nil {
		log.Fatal(err)
	}

	var a, b bytes.Buffer
	if err := walked.WriteJSON(&a); err != nil {
		log.Fatal(err)
	}
	if err := replayed.WriteJSON(&b); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("records: %d\n", len(replayed.Records))
	fmt.Printf("replayed sweep matches walker sweep: %v\n", bytes.Equal(a.Bytes(), b.Bytes()))
	// Output:
	// records: 2
	// replayed sweep matches walker sweep: true
}
