package sweep

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"waycache/internal/access"
	"waycache/internal/core"
	"waycache/internal/trace"
	"waycache/internal/workload"
)

// Grid declares a rectangular design-space sweep: the cartesian product of
// every listed dimension. An empty dimension contributes a single zero
// value, which core.Config resolves to the paper's Table 1 default, so the
// zero Grid expands to exactly one all-defaults configuration.
type Grid struct {
	Benchmarks []string

	DPolicies []access.DPolicy
	IPolicies []access.IPolicy

	DSizes, DWays, DBlocks []int
	ISizes, IWays, IBlocks []int

	// DLatencies sweeps the base d-cache hit latency (1 or 2 in the paper).
	DLatencies []int

	TableSizes  []int
	VictimSizes []int

	// Insts applies to every cell (0 means the core default of 1,000,000).
	Insts int64

	// UsePaperCosts switches every cell to the paper's Table 3 energy
	// constants instead of the mini-CACTI model.
	UsePaperCosts bool

	// TraceRefs maps benchmark names to content-addressed trace
	// references ("trace://<sha256>", typically printed by traceconv).
	// Every cell of a mapped benchmark replays the referenced capture
	// instead of a walker — which is also how externally imported
	// workloads, with no synthetic generator to fall back to, enter a
	// sweep. Keys must appear in Benchmarks (see Normalize).
	TraceRefs map[string]string
}

// Normalize expands and validates the grid's workload axis: "all" (or an
// empty benchmark list) becomes the full synthetic suite, every other
// name must be a suite benchmark or carry a TraceRefs entry, every
// TraceRefs value must be a well-formed trace:// reference, and every
// TraceRefs key must be a listed benchmark. Submission front ends (CLI
// flags, the HTTP service, the coordinator) all normalize through here,
// so a grid means the same cells everywhere — which is also what makes
// named-job idempotency checks compare like with like.
func (g Grid) Normalize() (Grid, error) {
	var names []string
	if len(g.Benchmarks) == 0 {
		names = workload.Names()
	} else {
		for _, b := range g.Benchmarks {
			b = strings.TrimSpace(b)
			switch {
			case b == "":
				continue
			case b == "all":
				names = append(names, workload.Names()...)
			default:
				names = append(names, b)
			}
		}
		if len(names) == 0 {
			names = workload.Names()
		}
	}
	for _, b := range names {
		if _, ok := g.TraceRefs[b]; ok {
			continue
		}
		if _, err := workload.ByName(b); err != nil {
			return g, fmt.Errorf("sweep: benchmark %q is not in the suite and has no trace reference", b)
		}
	}
	// Validate references in sorted benchmark order: with several bad
	// entries, which error surfaces must not depend on map iteration
	// order (the error string reaches job status and CLI output).
	refBenches := make([]string, 0, len(g.TraceRefs))
	for b := range g.TraceRefs {
		refBenches = append(refBenches, b)
	}
	sort.Strings(refBenches)
	for _, b := range refBenches {
		ref := g.TraceRefs[b]
		if _, ok := trace.ParseRef(ref); !ok {
			return g, fmt.Errorf("sweep: benchmark %q: malformed trace reference %q (want trace://<64 hex digits>)", b, ref)
		}
		found := false
		for _, n := range names {
			if n == b {
				found = true
				break
			}
		}
		if !found {
			return g, fmt.Errorf("sweep: trace reference for %q, which is not a listed benchmark", b)
		}
	}
	g.Benchmarks = names
	return g, nil
}

// orStrings returns dim, or the single zero value when the dim is empty.
func orStrings(dim []string) []string {
	if len(dim) == 0 {
		return []string{""}
	}
	return dim
}

func orInts(dim []int) []int {
	if len(dim) == 0 {
		return []int{0}
	}
	return dim
}

func orDPolicies(dim []access.DPolicy) []access.DPolicy {
	if len(dim) == 0 {
		return []access.DPolicy{access.DParallel}
	}
	return dim
}

func orIPolicies(dim []access.IPolicy) []access.IPolicy {
	if len(dim) == 0 {
		return []access.IPolicy{access.IParallel}
	}
	return dim
}

// SizeCap is the saturation bound of Size: grids whose cartesian product
// reaches it report exactly SizeCap. Capping keeps the product arithmetic
// overflow-free (no dimension can push a capped product past an int64), so
// size limits checked against Size — like the HTTP service's per-job
// bound — cannot be bypassed by a grid large enough to wrap.
const SizeCap = 1 << 40

// Size returns the number of configurations Configs will produce,
// saturating at SizeCap.
func (g Grid) Size() int {
	n := len(orStrings(g.Benchmarks))
	for _, l := range []int{
		len(orDPolicies(g.DPolicies)), len(orIPolicies(g.IPolicies)),
		len(orInts(g.DSizes)), len(orInts(g.DWays)), len(orInts(g.DBlocks)),
		len(orInts(g.ISizes)), len(orInts(g.IWays)), len(orInts(g.IBlocks)),
		len(orInts(g.DLatencies)), len(orInts(g.TableSizes)), len(orInts(g.VictimSizes)),
	} {
		if n >= SizeCap {
			return SizeCap
		}
		n *= l
	}
	if n >= SizeCap {
		return SizeCap
	}
	return n
}

// Configs expands the grid into the full cartesian product in a fixed
// row-major order (benchmark slowest, victim-list size fastest). The order
// depends only on the grid, never on who executes the jobs, so merged
// sweep output is deterministic regardless of worker count.
func (g Grid) Configs() []core.Config {
	cfgs := make([]core.Config, 0, g.Size())
	for _, bench := range orStrings(g.Benchmarks) {
		for _, dpol := range orDPolicies(g.DPolicies) {
			for _, ipol := range orIPolicies(g.IPolicies) {
				for _, dsize := range orInts(g.DSizes) {
					for _, dways := range orInts(g.DWays) {
						for _, dblock := range orInts(g.DBlocks) {
							for _, isize := range orInts(g.ISizes) {
								for _, iways := range orInts(g.IWays) {
									for _, iblock := range orInts(g.IBlocks) {
										for _, dlat := range orInts(g.DLatencies) {
											for _, tsize := range orInts(g.TableSizes) {
												for _, vsize := range orInts(g.VictimSizes) {
													cfgs = append(cfgs, core.Config{
														Benchmark: bench,
														Trace:     g.TraceRefs[bench],
														DPolicy:   dpol, IPolicy: ipol,
														DSize: dsize, DWays: dways, DBlock: dblock,
														ISize: isize, IWays: iways, IBlock: iblock,
														DLatency:  dlat,
														TableSize: tsize, VictimSize: vsize,
														Insts:         g.Insts,
														UsePaperCosts: g.UsePaperCosts,
													})
												}
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return cfgs
}

// SpanOf returns the [lo, hi) config-index range of the i-th of n
// contiguous, near-equal pieces of a grid of total configs (extra configs
// go to the leading pieces; pieces beyond the config count are empty).
// Concatenating the pieces in order reproduces the grid exactly, so
// distributed runs merge their outputs deterministically. A range is
// re-splittable: a partially done span [lo, hi) with w leading configs
// finished splits into an exported prefix [lo, lo+w) and a remainder
// [lo+w, hi) that is itself a valid work unit.
func SpanOf(total, i, n int) (lo, hi int) {
	if n <= 0 || i < 0 || i >= n || total < 0 {
		return 0, 0
	}
	size, rem := total/n, total%n
	lo = i*size + min(i, rem)
	hi = lo + size
	if i < rem {
		hi++
	}
	return lo, hi
}

// ParseSpan parses a span spec "lo-hi": the contiguous half-open config
// range [lo, hi) of the expanded grid, validating 0 <= lo < hi. Callers
// bound hi against the grid size themselves.
func ParseSpan(s string) (lo, hi int, err error) {
	if _, err := fmt.Sscanf(s, "%d-%d", &lo, &hi); err != nil {
		return 0, 0, fmt.Errorf("sweep: bad span %q (want lo-hi, e.g. 128-256)", s)
	}
	if lo < 0 || hi <= lo {
		return 0, 0, fmt.Errorf("sweep: bad span %q: need 0 <= lo < hi", s)
	}
	return lo, hi, nil
}

// FormatSpan renders a span spec in the form ParseSpan accepts.
func FormatSpan(lo, hi int) string { return fmt.Sprintf("%d-%d", lo, hi) }

// ParseShard parses a shard spec "i/n" (e.g. "0/4" is the first of four
// contiguous grid pieces), validating 0 <= i < n; SpanOf turns it into a
// config range.
func ParseShard(s string) (i, n int, err error) {
	if _, err := fmt.Sscanf(s, "%d/%d", &i, &n); err != nil {
		return 0, 0, fmt.Errorf("sweep: bad shard %q (want i/n, e.g. 0/4)", s)
	}
	if n <= 0 || i < 0 || i >= n {
		return 0, 0, fmt.Errorf("sweep: bad shard %q: need 0 <= i < n", s)
	}
	return i, n, nil
}

// AllDPolicies lists every d-cache policy the simulator implements, in
// enum order.
func AllDPolicies() []access.DPolicy {
	return []access.DPolicy{
		access.DParallel, access.DSequential,
		access.DWayPredPC, access.DWayPredXOR,
		access.DSelDMParallel, access.DSelDMWayPred, access.DSelDMSequential,
		access.DWayPredMRU,
	}
}

// AllIPolicies lists every i-cache policy.
func AllIPolicies() []access.IPolicy {
	return []access.IPolicy{access.IParallel, access.IWayPred}
}

// ParseDPolicies parses a comma-separated list of d-cache policy names
// (the names the paper's figures use, e.g. "parallel,seldm+waypred"), or
// "all" for every policy.
func ParseDPolicies(s string) ([]access.DPolicy, error) {
	if strings.TrimSpace(s) == "all" {
		return AllDPolicies(), nil
	}
	var pols []access.DPolicy
	for _, name := range splitList(s) {
		found := false
		for _, p := range AllDPolicies() {
			if p.String() == name {
				pols = append(pols, p)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("sweep: unknown d-cache policy %q (have %s or all)", name, policyNames())
		}
	}
	return pols, nil
}

// ParseIPolicies parses a comma-separated list of i-cache policy names
// ("parallel", "waypred"), or "all".
func ParseIPolicies(s string) ([]access.IPolicy, error) {
	if strings.TrimSpace(s) == "all" {
		return AllIPolicies(), nil
	}
	var pols []access.IPolicy
	for _, name := range splitList(s) {
		found := false
		for _, p := range AllIPolicies() {
			if p.String() == name {
				pols = append(pols, p)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("sweep: unknown i-cache policy %q (have parallel, waypred or all)", name)
		}
	}
	return pols, nil
}

// ParseTraceRefs parses a comma-separated "bench=trace://<hash>" list
// into a Grid.TraceRefs map. The empty string parses to nil.
func ParseTraceRefs(s string) (map[string]string, error) {
	var out map[string]string
	for _, f := range splitList(s) {
		bench, ref, ok := strings.Cut(f, "=")
		bench, ref = strings.TrimSpace(bench), strings.TrimSpace(ref)
		if !ok || bench == "" {
			return nil, fmt.Errorf("sweep: bad trace mapping %q (want bench=trace://<hash>)", f)
		}
		if _, refOK := trace.ParseRef(ref); !refOK {
			return nil, fmt.Errorf("sweep: benchmark %q: malformed trace reference %q (want trace://<64 hex digits>)", bench, ref)
		}
		if out == nil {
			out = make(map[string]string)
		}
		if prev, dup := out[bench]; dup && prev != ref {
			return nil, fmt.Errorf("sweep: benchmark %q mapped to two different traces", bench)
		}
		out[bench] = ref
	}
	return out, nil
}

// ParseIntList parses a comma-separated int list; values may carry k/m
// (binary) suffixes, so "16k" is 16384. The empty string parses to nil —
// an unconstrained grid dimension.
func ParseIntList(s string) ([]int, error) {
	var out []int
	for _, f := range splitList(s) {
		v, err := parseCount(f, 1<<10)
		if err != nil {
			return nil, err
		}
		out = append(out, int(v))
	}
	return out, nil
}

// parseCount reads one integer with an optional k (times k) or m (times
// k*k) suffix.
func parseCount(f string, k int64) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(strings.ToLower(f), "k"):
		mult, f = k, f[:len(f)-1]
	case strings.HasSuffix(strings.ToLower(f), "m"):
		mult, f = k*k, f[:len(f)-1]
	}
	v, err := strconv.ParseInt(f, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("sweep: bad dimension value %q", f)
	}
	return v * mult, nil
}

func policyNames() string {
	var names []string
	for _, p := range AllDPolicies() {
		names = append(names, p.String())
	}
	return strings.Join(names, ", ")
}

// splitList splits a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
