package sweep

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"waycache/internal/core"
	"waycache/internal/trace"
	"waycache/internal/tracestore"
	"waycache/internal/workload"
)

// traceResolver resolves trace://<hash> references carried by configs
// through a content-addressed store. Resolution is conservative: a
// reference is used only when its object provably covers the requested
// run (right benchmark, enough instructions); anything else falls back to
// the benchmark's own stream, which is always correct. Fallbacks are
// never silent: every benchmark that reverted is recorded with its
// reason (see fallbacks), so a run that quietly re-simulated can be
// surfaced to the caller. A reference with no suite stream to fall back
// to (an imported external workload) is left in place instead, so the
// run fails with the resolver's reason rather than silently computing
// something else.
type traceResolver struct {
	store *tracestore.Store

	mu        sync.Mutex            //wclint:lockrank 38
	probes    map[string]traceProbe // trace:// ref -> cached probe
	fallbacks map[string]string     // benchmark (or short hash) -> why its suite stream ran instead
}

type traceProbe struct {
	h      trace.Header
	ok     bool   // object exists, parses, and is trustworthy
	reason string // when !ok: why the object is unusable
}

func newTraceResolver(store *tracestore.Store) *traceResolver {
	return &traceResolver{
		store:     store,
		probes:    make(map[string]traceProbe),
		fallbacks: make(map[string]string),
	}
}

// resolve resolves cfg's trace://<hash> reference, if it carries one,
// through the content store. A usable object keeps the reference and
// gains the store; an unusable one falls back to the benchmark's stream
// only when it is a suite benchmark, with the reason — which names the
// hash and distinguishes a missing object from an unreadable one —
// recorded either way. Without a store nothing is resolved, so a
// reference fails its run in core.
func (r *traceResolver) resolve(cfg core.Config) core.Config {
	hash, ok := trace.ParseRef(cfg.Trace)
	if cfg.Source != nil || !ok || r.store == nil {
		return cfg
	}
	p := r.probeRef(cfg.Trace, hash)
	reason := p.reason
	if p.ok {
		switch {
		case p.h.Insts > 0 && p.h.Insts < cfg.Canonical().Insts:
			reason = fmt.Sprintf("trace %s holds %d instructions, run needs %d",
				trace.ShortHash(hash), p.h.Insts, cfg.Canonical().Insts)
		case cfg.Benchmark != "" && p.h.Benchmark != "" && p.h.Benchmark != cfg.Benchmark:
			reason = fmt.Sprintf("trace %s was imported as %q, not %q",
				trace.ShortHash(hash), p.h.Benchmark, cfg.Benchmark)
		default:
			cfg.TraceStore = r.store
			return cfg
		}
	}

	key := cfg.Benchmark
	if key == "" {
		key = trace.ShortHash(hash)
	}
	r.noteFallback(key, reason)
	if _, err := workload.ByName(cfg.Benchmark); err == nil {
		// The benchmark has a synthetic walker: run its stream.
		cfg.Trace, cfg.TraceStore = "", nil
		return cfg
	}
	// No suite stream exists for this workload. Keep the reference and
	// the store so the run fails with the real resolution error instead
	// of computing something else.
	cfg.TraceStore = r.store
	return cfg
}

// probeRef inspects the store object behind a trace:// reference once
// and caches the verdict. The reasons deliberately split the two
// failure classes a distributed operator must tell apart: hash not in the
// store (fetch/push it), and object present but unreadable (corrupt fetch
// or disk fault).
func (r *traceResolver) probeRef(ref, hash string) traceProbe {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.probes[ref]; ok {
		return p
	}
	var p traceProbe
	if path, err := r.store.Path(hash); err != nil {
		if errors.Is(err, tracestore.ErrNotFound) {
			p.reason = fmt.Sprintf("trace %s: not in the trace store", trace.ShortHash(hash))
		} else {
			p.reason = fmt.Sprintf("trace %s: %v", trace.ShortHash(hash), err)
		}
	} else if h, err := trace.ReadHeader(path); err != nil {
		p.reason = fmt.Sprintf("trace %s: fetch failed: %v", trace.ShortHash(hash), err)
	} else {
		p.h, p.ok = h, true
	}
	r.probes[ref] = p
	return p
}

// noteFallback records that bench ran without its reference and why.
// Per-config reasons (a too-short capture under a larger Insts) overwrite
// earlier ones; one reason per benchmark is what a summary needs.
func (r *traceResolver) noteFallback(bench, reason string) {
	r.mu.Lock()
	r.fallbacks[bench] = reason
	r.mu.Unlock()
}

// fallbackReport returns a copy of every benchmark that ran without its
// reference, with its reason, or nil when none did.
func (r *traceResolver) fallbackReport() map[string]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.fallbacks) == 0 {
		return nil
	}
	out := make(map[string]string, len(r.fallbacks))
	for b, why := range r.fallbacks {
		out[b] = why
	}
	return out
}

// FormatFallbacks renders a fallback report (see Engine.TraceFallbacks)
// as one "benchmark: reason" line per entry, sorted by benchmark, for CLI
// and log summaries.
func FormatFallbacks(fb map[string]string) []string {
	if len(fb) == 0 {
		return nil
	}
	benches := make([]string, 0, len(fb))
	for b := range fb {
		benches = append(benches, b)
	}
	sort.Strings(benches)
	lines := make([]string, len(benches))
	for i, b := range benches {
		lines[i] = fmt.Sprintf("%s: %s", b, fb[b])
	}
	return lines
}
