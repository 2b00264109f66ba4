package sweep

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"

	"waycache/internal/core"
	"waycache/internal/trace"
	"waycache/internal/tracestore"
	"waycache/internal/workload"
)

// traceResolver resolves configs onto captured traces, from two sources:
// a trace directory mapping benchmark names to <dir>/<benchmark>.wct
// files, and a content-addressed store serving trace://<hash> references
// carried by the configs themselves. Resolution is conservative: a trace
// is used only when it provably covers the requested run (right
// benchmark, enough instructions — and, for directory captures, the
// workload's current seed); anything else falls back to the walker,
// which is always correct, just slower. Fallbacks are never silent:
// every benchmark that reverted to the walker is recorded with its
// reason (see fallbacks), so a run that quietly re-simulated can be
// surfaced to the caller. A reference with no walker to fall back to
// (an imported external workload) is left in place instead, so the run
// fails with the resolver's reason rather than silently computing
// something else.
type traceResolver struct {
	dir   string
	store *tracestore.Store

	mu        sync.Mutex            //wclint:lockrank 38
	probes    map[string]traceProbe // benchmark or trace:// ref -> cached probe
	fallbacks map[string]string     // benchmark (or short hash) -> why the walker ran instead
}

type traceProbe struct {
	path   string
	h      trace.Header
	ok     bool   // capture exists, parses, and is trustworthy
	reason string // when !ok: why the capture is unusable
}

func newTraceResolver(dir string, store *tracestore.Store) *traceResolver {
	if dir == "" && store == nil {
		return nil
	}
	return &traceResolver{
		dir:       dir,
		store:     store,
		probes:    make(map[string]traceProbe),
		fallbacks: make(map[string]string),
	}
}

// resolve returns cfg pointed at a captured trace when one covers the
// run, or cfg unchanged. A nil resolver resolves nothing — except that
// trace:// references still need a store, so they fail in core with a
// clear error rather than silently walking.
func (r *traceResolver) resolve(cfg core.Config) core.Config {
	if cfg.Source != nil {
		return cfg
	}
	if hash, ok := trace.ParseRef(cfg.Trace); ok {
		if r == nil {
			return cfg
		}
		return r.resolveRef(cfg, hash)
	}
	if r == nil || r.dir == "" || cfg.Trace != "" || cfg.Benchmark == "" {
		return cfg
	}
	p := r.probe(cfg.Benchmark)
	if !p.ok {
		r.noteFallback(cfg.Benchmark, p.reason)
		return cfg
	}
	// Insts == 0 headers are rejected here even though core could replay
	// them: without a declared count we cannot know up front that the file
	// covers the run, and a mid-sweep fallback would not be possible.
	if p.h.Insts <= 0 {
		r.noteFallback(cfg.Benchmark, "capture declares no instruction count")
		return cfg
	}
	if p.h.Insts < cfg.Canonical().Insts {
		r.noteFallback(cfg.Benchmark, fmt.Sprintf("capture holds %d instructions, run needs %d",
			p.h.Insts, cfg.Canonical().Insts))
		return cfg
	}
	cfg.Trace = p.path
	return cfg
}

// resolveRef resolves a trace://<hash> config through the content store.
// A usable object keeps the reference and gains the store; an unusable
// one falls back to the walker only when the benchmark actually has one
// (suite benchmarks), with the reason — which names the hash and
// distinguishes a missing object from an unreadable one — recorded
// either way.
func (r *traceResolver) resolveRef(cfg core.Config, hash string) core.Config {
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
	if cfg.Benchmark != "" {
		if _, err := workload.ByName(cfg.Benchmark); err == nil {
			// The benchmark has a synthetic walker: run it, exactly like a
			// directory-capture fallback.
			cfg.Trace = ""
			cfg.TraceStore = nil
			return cfg
		}
	}
	// No walker exists for this workload. Keep the reference (and the
	// store, which may still be nil) so the run fails with the real
	// resolution error instead of computing something else.
	cfg.TraceStore = r.store
	return cfg
}

// probeRef inspects the store object behind a trace:// reference once
// and caches the verdict. The reasons deliberately split the three
// failure classes a distributed operator must tell apart: no store
// configured, hash not in the store (fetch/push it), and object present
// but unreadable (corrupt fetch or disk fault).
func (r *traceResolver) probeRef(ref, hash string) traceProbe {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.probes[ref]; ok {
		return p
	}
	var p traceProbe
	if r.store == nil {
		p.reason = fmt.Sprintf("trace %s: no trace store configured (-tracestore)", trace.ShortHash(hash))
	} else if path, err := r.store.Path(hash); err != nil {
		if errors.Is(err, tracestore.ErrNotFound) {
			p.reason = fmt.Sprintf("trace %s: not in the trace store", trace.ShortHash(hash))
		} else {
			p.reason = fmt.Sprintf("trace %s: %v", trace.ShortHash(hash), err)
		}
	} else if h, err := trace.ReadHeader(path); err != nil {
		p.reason = fmt.Sprintf("trace %s: fetch failed: %v", trace.ShortHash(hash), err)
	} else {
		p.path, p.h, p.ok = path, h, true
	}
	r.probes[ref] = p
	return p
}

// probe inspects <dir>/<benchmark>.wct once per engine and caches the
// verdict; concurrent workers share the cached header.
func (r *traceResolver) probe(bench string) traceProbe {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.probes[bench]; ok {
		return p
	}
	p := traceProbe{path: filepath.Join(r.dir, bench+trace.FileExt)}
	h, err := trace.ReadHeader(p.path)
	if err != nil {
		p.reason = err.Error()
	} else {
		p.h = h
		switch prof, err := workload.ByName(bench); {
		case err != nil:
			p.reason = err.Error()
		case p.h.Benchmark != bench:
			p.reason = fmt.Sprintf("capture is of benchmark %q, not %q", p.h.Benchmark, bench)
		case p.h.Seed != prof.Seed:
			// The seed check catches stale captures: a trace recorded
			// before a profile's seed (and thus its stream) changed no
			// longer mirrors the walker and must not stand in for it.
			p.reason = fmt.Sprintf("capture seed %d is stale (workload seed is now %d)", p.h.Seed, prof.Seed)
		default:
			p.ok = true
		}
	}
	r.probes[bench] = p
	return p
}

// noteFallback records that bench ran from the walker and why. Per-config
// reasons (a too-short capture under a larger Insts) overwrite earlier
// ones; one reason per benchmark is what a summary needs.
func (r *traceResolver) noteFallback(bench, reason string) {
	r.mu.Lock()
	r.fallbacks[bench] = reason
	r.mu.Unlock()
}

// fallbackReport returns a copy of every benchmark that reverted to the
// walker, with its reason. Nil resolver (no trace dir or store) reports
// nothing.
func (r *traceResolver) fallbackReport() map[string]string {
	if r == nil {
		return nil
	}
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
