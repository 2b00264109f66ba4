package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strings"
	"time"
	"unsafe"

	"waycache/internal/access"
	"waycache/internal/cache"
	"waycache/internal/core"
	"waycache/internal/energy"
	"waycache/internal/isa"
	"waycache/internal/resultdb"
	"waycache/internal/sweep"
	"waycache/internal/trace"
	"waycache/internal/tracestore"
	"waycache/internal/workload"
)

// The probes time single layers of the traced run's own work through the
// layers' public functions, on the workload's inputs. Each stream probe
// uses at most probeInsts instructions per benchmark.
const probeInsts = 100_000

// fetchWidth is the stride the window probe consumes, the core's fetch
// width.
const fetchWidth = 8

// walkerInsts returns the first n instructions of a benchmark's live
// walker.
func walkerInsts(bench string, n int64) ([]trace.Inst, error) {
	p, err := workload.ByName(bench)
	if err != nil {
		return nil, err
	}
	w := p.NewWalker()
	out := make([]trace.Inst, n)
	for i := range out {
		if !w.Next(&out[i]) {
			return out[:i], nil
		}
	}
	return out, nil
}

// probeGen drains each benchmark's walker behind trace.Windowed, as
// core.Run feeds it to the pipeline: nanoseconds per generated
// instruction.
func probeGen(benches []string, n int64) (float64, error) {
	var d time.Duration
	var insts int64
	for _, name := range benches {
		p, err := workload.ByName(name)
		if err != nil {
			return 0, err
		}
		src := trace.Windowed(p.NewWalker(), 512)
		start := time.Now()
		insts += drain(src, n)
		d += time.Since(start)
	}
	return float64(d) / float64(insts), nil
}

// drain consumes up to n instructions in fetch-width strides and returns
// how many it consumed.
func drain(src trace.WindowSource, n int64) int64 {
	var got int64
	var pcs uint64
	for got < n {
		w := src.Window()
		if len(w) == 0 {
			break
		}
		k := min(len(w), fetchWidth, int(n-got))
		for i := 0; i < k; i++ {
			pcs += w[i].PC
		}
		src.Advance(k)
		got += int64(k)
	}
	sink = pcs
	return got
}

// sink keeps probe loops from being optimised away.
var sink uint64

// probeTrace decodes every capture into a fresh arena, verifying its hash
// as the shared arena does, and drains each decoded capture through
// MemSource's Window/Advance: the decode's total seconds and megabytes of
// file per second, and nanoseconds per replayed instruction.
func (l *layerSet) probeTrace(ts *tracestore.Store, hashes replayManifest) error {
	arena := trace.NewArena(0)
	var size, insts int64
	var decode, window time.Duration
	for _, name := range workload.Names() {
		path, err := ts.Path(hashes[name])
		if err != nil {
			return err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		size += fi.Size()
		start := time.Now()
		src, err := arena.LoadRef(path, hashes[name])
		if err != nil {
			return err
		}
		decoded := time.Now()
		insts += drain(src, src.Remaining())
		window += time.Since(decoded)
		decode += decoded.Sub(start)
	}
	l.decodeS = decode.Seconds()
	l.decodeMBps = float64(size) / 1e6 / decode.Seconds()
	l.windowNs = float64(window) / float64(insts)
	return nil
}

// arenaResidentMB is the size of the instructions the program's shared
// trace arena holds decoded.
func arenaResidentMB() float64 {
	return float64(trace.SharedArena().Resident()) * float64(unsafe.Sizeof(trace.Inst{})) / 1e6
}

// probeResultDB times the disk store on a store in dir: a Put of each
// result, then, after closing the store, its reopening and a Get of each
// key. Milliseconds to open; microseconds per Get and per Put.
func probeResultDB(dir string, puts []*core.Result, gets []string) (openMs, getUs, putUs float64, err error) {
	db, err := resultdb.Open(dir)
	if err != nil {
		return 0, 0, 0, err
	}
	start := time.Now()
	for _, res := range puts {
		key, _ := res.Config.Key()
		if err := db.Put(key, res); err != nil {
			db.Close()
			return 0, 0, 0, err
		}
	}
	putUs = float64(time.Since(start)) / 1e3 / float64(max(len(puts), 1))
	if err := db.Close(); err != nil {
		return 0, 0, 0, err
	}
	start = time.Now()
	if db, err = resultdb.Open(dir); err != nil {
		return 0, 0, 0, err
	}
	openMs = float64(time.Since(start)) / 1e6
	defer db.Close()
	start = time.Now()
	for _, k := range gets {
		if _, found, err := db.Get(k); err != nil || !found {
			return 0, 0, 0, fmt.Errorf("resultdb probe: get %s: found %v, %v", k, found, err)
		}
	}
	getUs = float64(time.Since(start)) / 1e3 / float64(max(len(gets), 1))
	return openMs, getUs, putUs, nil
}

// probeEngine runs configurations through a cold one-worker engine over a
// fresh memory store: the engine's host time, and the share of it spent
// outside core.Run.
func probeEngine(cfgs []core.Config) (engineS, overhead float64, err error) {
	h := newHook(sweep.NewMemory(), "", newTracer(), func(string) (int, int) { return -1, -1 })
	eng := sweep.New(sweep.Options{Workers: 1, Store: sweep.NewStoreOn(h)})
	start := time.Now()
	if _, err := eng.RunConfigs(context.Background(), cfgs); err != nil {
		return 0, 0, err
	}
	d := time.Since(start)
	var run time.Duration
	for _, r := range h.simRuns() {
		run += r.d
	}
	return d.Seconds(), float64(d-run) / float64(d), nil
}

// probeEmit writes results as the sweep CLI's JSON and CSV records, chunk
// results per call: milliseconds per call.
func probeEmit(results []*core.Result, chunk int) (float64, error) {
	var buf bytes.Buffer
	calls := 0
	start := time.Now()
	for lo := 0; lo < len(results); lo += chunk {
		sw := sweep.NewSweep(results[lo:min(lo+chunk, len(results))])
		buf.Reset()
		if err := sw.WriteJSON(&buf); err != nil {
			return 0, err
		}
		buf.Reset()
		if err := sw.WriteCSV(&buf); err != nil {
			return 0, err
		}
		calls++
	}
	return float64(time.Since(start)) / 1e6 / float64(max(calls, 1)), nil
}

// refGeometry is the paper's 16 KB 4-way 32 B L1, the geometry the access
// probes model.
var refGeometry = energy.Geometry{SizeBytes: 16 << 10, Ways: 4, BlockBytes: 32}

func refCache(name string) cache.Config {
	return cache.Config{Name: name, SizeBytes: refGeometry.SizeBytes, Ways: refGeometry.Ways, BlockBytes: refGeometry.BlockBytes}
}

// probeDCache feeds the streams' loads and stores to a standalone d-cache
// controller per policy: nanoseconds per access.
func probeDCache(streams [][]trace.Inst) (map[access.DPolicy]float64, error) {
	costs, err := energy.DefaultCacti().CostsFor(refGeometry)
	if err != nil {
		return nil, err
	}
	out := make(map[access.DPolicy]float64)
	for _, pol := range sweep.AllDPolicies() {
		var d time.Duration
		var n int64
		for _, s := range streams {
			dc := access.NewDCache(access.DConfig{Policy: pol, Cache: refCache("L1d"), BaseLatency: 1, Costs: costs},
				cache.DefaultHierarchy(32))
			start := time.Now()
			for i := range s {
				switch s[i].Kind {
				case isa.KindLoad:
					dc.Load(&s[i])
					n++
				case isa.KindStore:
					dc.Store(&s[i])
					n++
				}
			}
			d += time.Since(start)
		}
		out[pol] = float64(d) / float64(n)
	}
	return out, nil
}

// probeICache fetches each stream's instruction blocks through a
// standalone i-cache controller, one fetch per change of block:
// nanoseconds per fetch.
func probeICache(streams [][]trace.Inst) (float64, error) {
	costs, err := energy.DefaultCacti().CostsFor(refGeometry)
	if err != nil {
		return 0, err
	}
	var d time.Duration
	var n int64
	for _, s := range streams {
		var pcs []uint64
		last := ^uint64(0)
		for i := range s {
			if b := s[i].PC >> 5; b != last {
				pcs = append(pcs, s[i].PC)
				last = b
			}
		}
		ic := access.NewICache(access.IConfig{Cache: refCache("L1i"), BaseLatency: 1, Costs: costs},
			cache.DefaultHierarchy(32))
		start := time.Now()
		for _, pc := range pcs {
			ic.Fetch(pc, access.WayPred{})
		}
		d += time.Since(start)
		n += int64(len(pcs))
	}
	return float64(d) / float64(n), nil
}

// probeCosts times the energy model's cost derivation, which core.Run
// performs twice per configuration: microseconds per call.
func probeCosts() (float64, error) {
	const reps = 200
	start := time.Now()
	for i := 0; i < reps; i++ {
		g := refGeometry
		g.Ways = 1 << (1 + i%3)
		if _, err := energy.DefaultCacti().CostsFor(g); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start)) / 1e3 / reps, nil
}

// probeCore times the canonical key, encoding and decoding of the run's
// configurations and results: microseconds per call.
func probeCore(cfgs []core.Config, results []*core.Result) (keyUs, encUs, decUs float64, err error) {
	if len(cfgs) == 0 {
		return 0, 0, 0, nil
	}
	start := time.Now()
	for _, c := range cfgs {
		c.Key()
	}
	keyUs = float64(time.Since(start)) / 1e3 / float64(len(cfgs))
	payloads := make([][]byte, len(results))
	start = time.Now()
	for i, r := range results {
		if payloads[i], err = core.EncodeResult(r); err != nil {
			return 0, 0, 0, err
		}
	}
	encUs = float64(time.Since(start)) / 1e3 / float64(len(results))
	start = time.Now()
	for _, p := range payloads {
		if _, err := core.DecodeResult(p); err != nil {
			return 0, 0, 0, err
		}
	}
	decUs = float64(time.Since(start)) / 1e3 / float64(len(results))
	return keyUs, encUs, decUs, nil
}

// policyName is a policy's name as a metric-name suffix.
func policyName(p access.DPolicy) string { return strings.ReplaceAll(p.String(), "+", "-") }
