// Package core is the top-level simulator API: it assembles workloads,
// the out-of-order pipeline, cache access policies, and the energy models
// into single-call experiment runs, and computes the relative energy-delay
// metrics every figure in the paper reports.
//
// The typical usage is Run with a Config naming a benchmark and the d- and
// i-cache policies; Compare derives technique-vs-baseline metrics:
//
//	base, _ := core.Run(core.Config{Benchmark: "gcc", Insts: 1e6})
//	tech, _ := core.Run(core.Config{Benchmark: "gcc", Insts: 1e6,
//	    DPolicy: access.DSelDMWayPred})
//	cmp := core.Compare(base, tech)       // relative E·D, perf degradation
package core

import (
	"errors"
	"fmt"
	"io/fs"

	"waycache/internal/access"
	"waycache/internal/cache"
	"waycache/internal/energy"
	"waycache/internal/pipeline"
	"waycache/internal/predict"
	"waycache/internal/trace"
	"waycache/internal/workload"
)

// Config describes one simulation run. Zero values mean the paper's
// defaults (Table 1): 16 KB 4-way 32 B L1s, 1-cycle hit, 8-wide core,
// 1024-entry prediction tables, 16-entry victim list.
type Config struct {
	// Benchmark names a workload.Suite profile. Leave empty and set Source
	// or Trace to drive the simulator from a custom stream; without them
	// a run replays the process-wide capture of the benchmark's walker
	// (see trace.Arena.Capture; a run too long to capture reads the
	// walker as it goes).
	Benchmark string
	// Source is an optional custom stream (overrides Benchmark and Trace);
	// wrap a Next-only generator with trace.Windowed. A config driving one
	// has no canonical key or encoding, so such runs are never memoized or
	// persisted (see Key and EncodeResult).
	Source trace.WindowSource `json:"-"`

	// Trace is the path of a captured trace file (trace.Writer format; see
	// docs/TRACE_FORMAT.md), or a content-addressed "trace://<sha256>"
	// reference resolved through TraceStore. When set, the simulation
	// replays the capture instead of Benchmark's own stream — the
	// pipeline consumes the identical instruction stream either way, so
	// results match a live run of the captured workload byte for byte. The
	// capture must hold at least Insts instructions; when Benchmark is also
	// set, the capture's header must name the same benchmark.
	Trace string

	// TraceStore resolves trace:// references in Trace to local files
	// (typically a *tracestore.Store). It is plumbing, not identity — the
	// hash inside the reference already names the exact bytes, so the
	// store is excluded from Key and the canonical encoding, and the same
	// reference produces the same results whichever store serves it.
	TraceStore TraceStore `json:"-"`

	// Insts is the number of instructions to simulate (default 1,000,000).
	Insts int64

	DPolicy access.DPolicy
	IPolicy access.IPolicy

	// SelectiveWays, when positive, replaces the d-cache policy with the
	// Albonesi selective-cache-ways baseline: only this many of DWays are
	// enabled (reads probe them in parallel; capacity shrinks
	// accordingly). Used by the related-work comparison experiment.
	SelectiveWays int

	// DSize/DWays/DBlock configure the L1 d-cache geometry; ISize/IWays/
	// IBlock the i-cache.
	DSize, DWays, DBlock int
	ISize, IWays, IBlock int

	// DLatency is the base (parallel-access) d-cache hit latency in cycles
	// (1 or 2 in the paper).
	DLatency int

	// TableSize overrides the 1024-entry prediction tables; VictimSize the
	// 16-entry victim list.
	TableSize  int
	VictimSize int

	// UsePaperCosts switches the energy model from the mini-CACTI-derived
	// geometry-dependent costs to the paper's published Table 3 constants
	// (which are exact only for the 16 KB 4-way reference geometry).
	UsePaperCosts bool

	// Core overrides pipeline structure; zero means Table 1.
	Core pipeline.Config
}

// TraceStore maps a trace content hash (64 lowercase hex digits) to a
// local .wct file path. *tracestore.Store implements it; the indirection
// keeps core free of the store's on-disk concerns.
type TraceStore interface {
	Path(hash string) (string, error)
}

func (c Config) withDefaults() Config {
	if c.Insts == 0 {
		c.Insts = 1_000_000
	}
	if c.DSize == 0 {
		c.DSize = 16 << 10
	}
	if c.DWays == 0 {
		c.DWays = 4
	}
	if c.DBlock == 0 {
		c.DBlock = 32
	}
	if c.ISize == 0 {
		c.ISize = 16 << 10
	}
	if c.IWays == 0 {
		c.IWays = 4
	}
	if c.IBlock == 0 {
		c.IBlock = 32
	}
	if c.DLatency == 0 {
		c.DLatency = 1
	}
	// Materialize the prediction-structure defaults too, so Key() treats
	// an explicit 1024-entry table / 16-entry victim list and the zero
	// value as the identical simulation they are (branch.NewFrontEnd and
	// access both default to these same sizes).
	if c.TableSize == 0 {
		c.TableSize = predict.DefaultWayEntries
	}
	if c.VictimSize == 0 {
		c.VictimSize = cache.DefaultVictimEntries
	}
	if c.Core.ROBSize == 0 {
		c.Core = pipeline.DefaultConfig(c.Insts)
	}
	c.Core.MaxInsts = c.Insts
	return c
}

// Canonical returns the config with every default applied — the form under
// which results are memoized, compared and reported. Two configs with equal
// canonical forms describe the same simulation.
func (c Config) Canonical() Config { return c.withDefaults() }

// Key returns a canonical memoization key: configs with equal keys simulate
// identically, so their results are interchangeable. ok is false when the
// config drives a custom trace Source, whose behaviour a key cannot
// capture; such runs must not be memoized.
func (c Config) Key() (key string, ok bool) {
	if c.Source != nil {
		return "", false
	}
	c = c.withDefaults()
	key = fmt.Sprintf("%s|n%d|d%d.%d.%d.L%d.%v|i%d.%d.%d.%v|t%d|v%d|sw%d|pc%v|core%+v",
		c.Benchmark, c.Insts,
		c.DSize, c.DWays, c.DBlock, c.DLatency, c.DPolicy,
		c.ISize, c.IWays, c.IBlock, c.IPolicy,
		c.TableSize, c.VictimSize, c.SelectiveWays, c.UsePaperCosts, c.Core)
	// A replayed trace is keyed separately from the walker run it mirrors:
	// the two are byte-identical for a faithful capture, but the file's
	// contents are not provable from the config alone. A trace://<hash>
	// reference is the strong form of this: the key then names the exact
	// bytes, host-independently, so memoized results and traces link
	// durably across machines.
	if c.Trace != "" {
		key += "|tr:" + c.Trace
	}
	return key, true
}

// costsFor derives the energy cost model for one cache geometry.
func (c Config) costsFor(size, ways, block int) (energy.Costs, error) {
	if c.UsePaperCosts {
		return energy.PaperCosts(), nil
	}
	return energy.DefaultCacti().CostsFor(energy.Geometry{
		SizeBytes: size, Ways: ways, BlockBytes: block,
	})
}

// source builds the trace source. The returned finish func, nil except
// for c.Trace, reports once the run has drained the source whether the
// trace ran dry: its deferred decode error, or its short length.
func (c Config) source() (src trace.WindowSource, name string, finish func() error, err error) {
	if c.Source != nil {
		name := c.Benchmark
		if name == "" {
			name = "custom"
		}
		return trace.NewLimit(c.Source, c.Insts), name, nil, nil
	}
	if c.Trace != "" {
		return c.traceSource()
	}
	if c.Benchmark == "" {
		return nil, "", nil, fmt.Errorf("core: config needs Benchmark, Trace or Source")
	}
	p, err := workload.ByName(c.Benchmark)
	if err != nil {
		return nil, "", nil, err
	}
	h := trace.Header{Benchmark: p.Name, Seed: p.Seed, Insts: c.Insts}
	capture := trace.SharedArena().Capture(h, func() trace.Source { return p.NewWalker() })
	return trace.NewLimit(capture, c.Insts), p.Name, nil, nil
}

// traceSource resolves the captured trace named by c.Trace through the
// process-wide arena — each file is decoded once and every run replays the
// shared in-memory instructions — and validates it against the run: it
// must carry enough instructions and, when Benchmark is set too, come from
// that benchmark. A corrupt capture replays its good prefix, and its
// decode error surfaces only if the run actually consumes the corrupt
// range.
func (c Config) traceSource() (trace.WindowSource, string, func() error, error) {
	var src *trace.MemSource
	var err error
	if hash, ok := trace.ParseRef(c.Trace); ok {
		// Content-addressed reference: the store locates the bytes and the
		// arena verifies them against the hash before decoding.
		if c.TraceStore == nil {
			return nil, "", nil, fmt.Errorf("core: trace reference %s needs a trace store (-tracestore)", c.Trace)
		}
		path, perr := c.TraceStore.Path(hash)
		if perr != nil {
			return nil, "", nil, fmt.Errorf("core: resolving %s: %w", c.Trace, perr)
		}
		src, err = trace.SharedArena().LoadRef(path, hash)
	} else {
		src, err = trace.SharedArena().Load(c.Trace)
	}
	if err != nil {
		// Name the trace, as trace.ReadHeader does, unless the error is
		// the file system's and names it already.
		var pe *fs.PathError
		if errors.As(err, &pe) && pe.Path == c.Trace {
			return nil, "", nil, err
		}
		return nil, "", nil, fmt.Errorf("%s: %w", c.Trace, err)
	}
	h := src.Header()
	if h.Insts > 0 && h.Insts < c.Insts {
		return nil, "", nil, fmt.Errorf("core: trace %s holds %d instructions, run needs %d",
			c.Trace, h.Insts, c.Insts)
	}
	name := h.Benchmark
	if c.Benchmark != "" {
		if h.Benchmark != "" && h.Benchmark != c.Benchmark {
			return nil, "", nil, fmt.Errorf("core: trace %s was captured from %q, not %q",
				c.Trace, h.Benchmark, c.Benchmark)
		}
		name = c.Benchmark
	}
	if name == "" {
		name = "trace"
	}
	finish := func() error {
		if src.Count() < c.Insts {
			// The replay ran dry: corrupt suffix if the decoder stopped on
			// an error, plain short trace otherwise.
			if err := src.Err(); err != nil {
				return err
			}
			return fmt.Errorf("trace ended after %d of %d instructions", src.Count(), c.Insts)
		}
		return nil
	}
	return trace.NewLimit(src, c.Insts), name, finish, nil
}

// dcacheConfig assembles the d-cache controller configuration.
func (c Config) dcacheConfig() (access.DConfig, error) {
	costs, err := c.costsFor(c.DSize, c.DWays, c.DBlock)
	if err != nil {
		return access.DConfig{}, err
	}
	return access.DConfig{
		Policy: c.DPolicy,
		Cache: cache.Config{
			Name: "L1d", SizeBytes: c.DSize, Ways: c.DWays, BlockBytes: c.DBlock,
		},
		BaseLatency: c.DLatency,
		Costs:       costs,
		TableSize:   c.TableSize,
		VictimSize:  c.VictimSize,
	}, nil
}

// icacheConfig assembles the i-cache controller configuration.
func (c Config) icacheConfig() (access.IConfig, error) {
	costs, err := c.costsFor(c.ISize, c.IWays, c.IBlock)
	if err != nil {
		return access.IConfig{}, err
	}
	return access.IConfig{
		Policy: c.IPolicy,
		Cache: cache.Config{
			Name: "L1i", SizeBytes: c.ISize, Ways: c.IWays, BlockBytes: c.IBlock,
		},
		BaseLatency: 1,
		Costs:       costs,
	}, nil
}
