package main

import (
	"time"

	"waycache/internal/access"
	"waycache/internal/core"
	"waycache/internal/sweep"
	"waycache/internal/trace"
)

// layerSet is every per-layer metric a traced run reports. Every workload
// reports every metric: a layer its timed phase does not exercise (the
// disk store and server on the sweeps, the engine's own loop and record
// emission on service-mixed, trace decode off sweep-replay) is timed by a
// probe on the workload's inputs instead. trace.resident_mb is the
// program's own arena, so it reads 0 where nothing is replayed.
type layerSet struct {
	genNs                          float64
	decodeS, decodeMBps            float64
	residentMB, windowNs           float64
	dcacheNs                       map[access.DPolicy]float64
	icacheNs                       float64
	runNs                          map[access.DPolicy]float64
	pipelineSelfNs                 float64
	costsUs, keyUs, encUs, decUs   float64
	engineOverhead, engineS        float64
	emitMs                         float64
	memoHits, memoMisses           float64
	rdbOpenMs, rdbGetUs, rdbPutUs  float64
	submit, queue, export, query   [2]float64 // p50 and tail, ms
	rescans, queries               float64
	insts, cycles, loads           float64
	mispredicts, dl1Misses         float64
	tracingOverhead, unattributedF float64
}

func (l *layerSet) fill(r *report) {
	r.set("workload.gen_ns_per_inst", "ns", l.genNs)
	r.set("trace.decode_s", "s", l.decodeS)
	r.set("trace.decode_mb_per_s", "MB/s", l.decodeMBps)
	r.set("trace.resident_mb", "MB", l.residentMB)
	r.set("trace.window_ns_per_inst", "ns", l.windowNs)
	for _, p := range sweep.AllDPolicies() {
		r.set("access.dcache_ns_per_access."+policyName(p), "ns", l.dcacheNs[p])
		r.set("core.run_ns_per_inst."+policyName(p), "ns", l.runNs[p])
	}
	r.set("access.icache_ns_per_fetch", "ns", l.icacheNs)
	r.set("pipeline.self_ns_per_inst", "ns", l.pipelineSelfNs)
	r.set("energy.costs_us", "us", l.costsUs)
	r.set("core.key_us", "us", l.keyUs)
	r.set("core.encode_us", "us", l.encUs)
	r.set("core.decode_us", "us", l.decUs)
	r.set("sweep.engine_overhead_frac", "frac", l.engineOverhead)
	r.set("sweep.engine_s", "s", l.engineS)
	r.set("sweep.emit_ms", "ms", l.emitMs)
	ratio := 0.0
	if l.memoHits+l.memoMisses > 0 {
		ratio = l.memoHits / (l.memoHits + l.memoMisses)
	}
	r.set("sweep.memo_hit_ratio", "frac", ratio)
	r.set("sweep.memo_hits", "count", l.memoHits)
	r.set("sweep.memo_misses", "count", l.memoMisses)
	r.set("resultdb.open_ms", "ms", l.rdbOpenMs)
	r.set("resultdb.get_us", "us", l.rdbGetUs)
	r.set("resultdb.put_us", "us", l.rdbPutUs)
	for _, m := range []struct {
		name string
		v    [2]float64
	}{{"submit", l.submit}, {"queue", l.queue}, {"export", l.export}, {"query", l.query}} {
		r.set("server."+m.name+"_ms.p50", "ms", m.v[0])
		r.set("server."+m.name+"_ms.tail", "ms", m.v[1])
	}
	r.set("server.corpus_rescans", "count", l.rescans)
	r.set("server.queries", "count", l.queries)
	r.set("sim.insts", "count", l.insts)
	r.set("pipeline.cycles", "count", l.cycles)
	r.set("access.loads", "count", l.loads)
	r.set("access.mispredicts", "count", l.mispredicts)
	r.set("cache.dl1_misses", "count", l.dl1Misses)
	r.set("harness.tracing_overhead_frac", "frac", l.tracingOverhead)
	r.set("harness.unattributed_frac", "frac", l.unattributedF)
}

// countResults sums the deterministic work counts of a set of results.
func (l *layerSet) countResults(results []*core.Result) {
	for _, res := range results {
		if res == nil {
			continue
		}
		l.insts += float64(res.Pipeline.Committed)
		l.cycles += float64(res.Pipeline.Cycles)
		l.loads += float64(res.DStats.Loads)
		l.mispredicts += float64(res.DStats.ByClass[access.ClassMispred])
		l.dl1Misses += float64(res.DL1.Misses)
	}
}

// probeStreams runs the probes every workload shares, on its benchmarks'
// instruction streams, its configurations and its results.
func (l *layerSet) probeStreams(benches []string, insts int64, cfgs []core.Config, results []*core.Result) error {
	n := min(insts, probeInsts)
	var err error
	if l.genNs, err = probeGen(benches, n); err != nil {
		return err
	}
	streams := make([][]trace.Inst, len(benches))
	for i, b := range benches {
		if streams[i], err = walkerInsts(b, n); err != nil {
			return err
		}
	}
	if l.dcacheNs, err = probeDCache(streams); err != nil {
		return err
	}
	if l.icacheNs, err = probeICache(streams); err != nil {
		return err
	}
	if l.costsUs, err = probeCosts(); err != nil {
		return err
	}
	l.keyUs, l.encUs, l.decUs, err = probeCore(cfgs, results)
	return err
}

// attribute splits the simulations' host time by layer: per-policy
// core.Run cost per instruction, and the pipeline's own share once the
// source, access and energy estimates (probe unit cost x the results'
// event counts) are taken out. srcNs is the per-instruction cost of the
// runs' instruction source.
func (l *layerSet) attribute(runs []simRun, results []*core.Result, srcNs float64) {
	var runD time.Duration
	byPol := map[access.DPolicy][2]float64{}
	var insts float64
	for _, r := range runs {
		runD += r.d
		v := byPol[r.pol]
		v[0] += float64(r.d)
		v[1] += float64(r.insts)
		byPol[r.pol] = v
		insts += float64(r.insts)
	}
	l.runNs = make(map[access.DPolicy]float64)
	for p, v := range byPol {
		l.runNs[p] = v[0] / v[1]
	}
	if insts == 0 {
		return
	}
	var simInsts, est float64
	for _, res := range results {
		if res == nil {
			continue
		}
		simInsts += float64(res.Pipeline.Committed)
		est += float64(res.DStats.Loads+res.DStats.Stores) * l.dcacheNs[res.Config.DPolicy]
		est += float64(res.IStats.Fetches) * l.icacheNs
		est += 2 * l.costsUs * 1e3
	}
	est += simInsts * srcNs
	// Scale the estimates to the simulations the spans saw.
	est *= insts / simInsts
	l.pipelineSelfNs = (float64(runD) - est) / insts
}
