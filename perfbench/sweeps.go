package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"waycache/internal/access"
	"waycache/internal/core"
	"waycache/internal/prng"
	"waycache/internal/sweep"
	"waycache/internal/trace"
	"waycache/internal/tracestore"
	"waycache/internal/workload"
)

// The sweep workloads run the paper's design space — every suite
// benchmark under all eight d-cache policies at 2/4/8 ways and a 1 or 2
// cycle base latency — one configuration at a time.
const (
	sweepInsts = 150_000
	// sweepMinRounds rounds of 88 configurations give 264 latency samples;
	// sweepTail is the highest percentile with ten samples beyond it there.
	sweepMinRounds = 3
	// Set-up repetitions; setup_s is their median.
	walkerSetupReps = 25
	replaySetupReps = 5
)

var (
	sweepWays = []int{2, 4, 8}
	sweepLats = []int{1, 2}
	// sweepTail is op_tail_ms's percentile for the sweeps.
	sweepTail = tailTenths(sweepMinRounds * 88)
)

// cell is one point of the design space.
type cell struct {
	bench     string
	pol       access.DPolicy
	ways, lat int
}

func (c cell) String() string { return fmt.Sprintf("%s %s %d %d", c.bench, c.pol, c.ways, c.lat) }

func (c cell) config(insts int64) core.Config {
	return core.Config{Benchmark: c.bench, DPolicy: c.pol, DWays: c.ways, DLatency: c.lat, Insts: insts}
}

// geometries is the number of (ways, latency) points per benchmark and
// policy.
func geometries() int { return len(sweepWays) * len(sweepLats) }

// sweepPlan is the seed's slice of the design space. Each round holds every
// (benchmark, policy) pair exactly once, so every round has the same mix of
// workloads and policies; the seed picks which geometry each pair takes in
// each round (a permutation, so six rounds visit every cell once) and the
// order the round runs in.
type sweepPlan struct {
	seed  uint64
	pairs []cell  // benchmark x policy, geometry unset
	geos  [][]int // per pair: the geometry index of each round
}

func newSweepPlan(seed uint64) *sweepPlan {
	p := &sweepPlan{seed: seed}
	for _, b := range workload.Names() {
		for _, pol := range sweep.AllDPolicies() {
			p.pairs = append(p.pairs, cell{bench: b, pol: pol})
		}
	}
	for _, c := range p.pairs {
		perm := make([]int, geometries())
		prng.FromSeed(seed, "geometry", c.bench, c.pol.String()).Perm(perm)
		p.geos = append(p.geos, perm)
	}
	return p
}

// round returns the cells of round r. Rounds repeat with a period of six;
// the engine gets a fresh store at each period so no cell is ever recalled.
func (p *sweepPlan) round(r int) []cell {
	k := r % geometries()
	order := make([]int, len(p.pairs))
	prng.FromSeed(p.seed, "order", strconv.Itoa(k)).Perm(order)
	cells := make([]cell, len(order))
	for i, pi := range order {
		c := p.pairs[pi]
		g := p.geos[pi][k]
		c.ways, c.lat = sweepWays[g/len(sweepLats)], sweepLats[g%len(sweepLats)]
		cells[i] = c
	}
	return cells
}

// statsDigest fingerprints a result's simulated statistics, leaving out
// the configuration (which names the trace a replay ran from), so a walker
// run and a replay of the same cell digest identically.
func statsDigest(res *core.Result) (string, error) {
	rr := *res
	rr.Config = core.Config{}
	rr.Benchmark = ""
	b, err := json.Marshal(&rr)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}

// goldenText holds the statistics digest of every cell of the design space
// at sweepInsts instructions, recorded from live walker runs by
// `go run . --phase golden > golden.txt`. Both sweeps check every result
// against it: replay must equal the walker by contract, so one table serves
// both. Regenerate it only for a deliberate model change.
//
//go:embed golden.txt
var goldenText string

func loadGolden() (map[string]string, error) {
	g := make(map[string]string)
	for _, line := range strings.Split(goldenText, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) != 5 {
			return nil, fmt.Errorf("golden.txt: malformed line %q", line)
		}
		g[strings.Join(f[:4], " ")] = f[4]
	}
	return g, nil
}

// writeGolden simulates every cell of the design space from the live
// walkers and prints the golden table.
func writeGolden() error {
	var cells []cell
	for _, b := range workload.Names() {
		for _, pol := range sweep.AllDPolicies() {
			for _, w := range sweepWays {
				for _, l := range sweepLats {
					cells = append(cells, cell{b, pol, w, l})
				}
			}
		}
	}
	cfgs := make([]core.Config, len(cells))
	for i, c := range cells {
		cfgs[i] = c.config(sweepInsts)
	}
	results, err := sweep.New(sweep.Options{}).RunConfigs(context.Background(), cfgs)
	if err != nil {
		return err
	}
	fmt.Printf("# Statistics digests of every design-space cell at %d instructions:\n", sweepInsts)
	fmt.Println("# benchmark d-policy d-ways d-latency digest")
	for i, res := range results {
		d, err := statsDigest(res)
		if err != nil {
			return err
		}
		fmt.Printf("%s %s\n", cells[i], d)
	}
	return nil
}

// replayManifest names the content-addressed capture of each benchmark.
type replayManifest map[string]string

const manifestFile = "captures.json"

// prepCaptures captures every suite benchmark's first sweepInsts
// instructions and files each capture in a trace store under dir.
func prepCaptures(dir string) error {
	ts, err := tracestore.Open(filepath.Join(dir, "traces"))
	if err != nil {
		return err
	}
	m := replayManifest{}
	for _, p := range workload.Suite() {
		tmp := filepath.Join(dir, p.Name+".wct")
		if err := p.CaptureFile(tmp, sweepInsts); err != nil {
			return err
		}
		hash, _, err := ts.PutFile(tmp)
		if err != nil {
			return err
		}
		if err := os.Remove(tmp); err != nil {
			return err
		}
		m[p.Name] = hash
	}
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, manifestFile), b, 0o644)
}

// openCaptures opens the trace store prepCaptures filled and reads its
// manifest.
func openCaptures(dir string) (*tracestore.Store, replayManifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, nil, err
	}
	var m replayManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, nil, err
	}
	ts, err := tracestore.Open(filepath.Join(dir, "traces"))
	return ts, m, err
}

// sweepBench is one sweep workload run.
type sweepBench struct {
	replay bool
	dir    string
	plan   *sweepPlan
	golden map[string]string

	hashes replayManifest    // benchmark -> capture hash
	ts     *tracestore.Store // the captures' trace store
	tr     *tracer           // nil when untraced
	parent atomic.Int64      // span the engine's core.Run spans nest in
	opOf   map[string]int    // config key -> operation id, for spans
	round  *roundState       // the round the engine is running
	hooks  []*hookBackend    // one per engine built
	stores []*sweep.Store    // likewise
	emit   bytes.Buffer      // reused output buffer
}

// roundState collects per-configuration completion times of one round.
type roundState struct {
	last time.Time
	lat  []float64
}

func (b *sweepBench) config(c cell) core.Config {
	cfg := c.config(sweepInsts)
	if b.replay {
		cfg.Trace = trace.FormatRef(b.hashes[c.bench])
	}
	return cfg
}

// newEngine builds the cold engine a period of rounds runs on: one worker
// over a fresh in-memory store, observed through a hook.
func (b *sweepBench) newEngine() *sweep.Engine {
	owner := func(key string) (int, int) { return int(b.parent.Load()), b.opOf[key] }
	h := newHook(sweep.NewMemory(), "", b.tr, owner)
	st := sweep.NewStoreOn(h)
	b.hooks = append(b.hooks, h)
	b.stores = append(b.stores, st)
	o := sweep.Options{
		Workers: 1,
		Store:   st,
		OnResult: func(i int, _ *core.Result) {
			now := time.Now()
			b.round.lat[i] = float64(now.Sub(b.round.last)) / 1e6
			b.round.last = now
		},
	}
	if b.replay {
		o.TraceStore = b.ts
	}
	return sweep.New(o)
}

// setup times, untraced, the program's set-up before the first timed
// configuration. For the replay sweep that is trace store open, arena
// decode and hash verification of every capture; the last repetition
// fills the process-wide arena the timed phase replays from. The walker
// engine has no set-up step of its own — programs are built inside
// core.Run — so its set-up is the cold start a user waits through: engine
// construction to the first answered configuration, the same one for every
// seed so that set-up times compare across seeds.
func (b *sweepBench) setup() ([]time.Duration, error) {
	tr := b.tr
	b.tr = nil
	defer func() { b.tr = tr }()
	first := []core.Config{b.config(cell{bench: workload.Names()[0], pol: access.DParallel, ways: 4, lat: 1})}
	reps := walkerSetupReps
	if b.replay {
		reps = replaySetupReps
	}
	var times []time.Duration
	for rep := 0; rep < reps; rep++ {
		runtime.GC() // drop the previous repetition's arena outside the timing
		start := time.Now()
		if b.replay {
			arena := trace.NewArena(0)
			if rep == reps-1 {
				arena = trace.SharedArena()
			}
			ts, err := tracestore.Open(filepath.Join(b.dir, "traces"))
			if err != nil {
				return nil, err
			}
			for _, name := range workload.Names() {
				path, err := ts.Path(b.hashes[name])
				if err != nil {
					return nil, err
				}
				if _, err := arena.LoadRef(path, b.hashes[name]); err != nil {
					return nil, err
				}
			}
			b.ts = ts
		} else {
			b.round = &roundState{lat: make([]float64, 1), last: start}
			if _, err := b.newEngine().RunConfigs(context.Background(), first); err != nil {
				return nil, err
			}
		}
		times = append(times, time.Since(start))
	}
	b.hooks, b.stores = nil, nil
	return times, nil
}

// sweepPhase is what one timed phase produced.
type sweepPhase struct {
	elapsed time.Duration
	rounds  int
	cells   []cell
	results []*core.Result
	lat     []float64
	failed  int      // configurations whose output failed a check
	windows []window // one per round
}

// runPhase runs rounds until the phase has lasted `seconds` and at least
// minRounds rounds are done (or exactly `rounds` rounds when rounds > 0).
// Each round is one RunConfigs call followed by JSON and CSV emission.
func (b *sweepBench) runPhase(seconds float64, minRounds, rounds int) *sweepPhase {
	ph := &sweepPhase{}
	var eng *sweep.Engine
	start := time.Now()
	for r := 0; ; r++ {
		if rounds > 0 && r == rounds {
			break
		}
		if rounds == 0 && r >= minRounds && time.Since(start).Seconds() >= seconds {
			break
		}
		if r%geometries() == 0 {
			eng = b.newEngine() // a new period: cold again
		}
		cells := b.plan.round(r)
		cfgs := make([]core.Config, len(cells))
		for i, c := range cells {
			cfgs[i] = b.config(c)
			if b.tr != nil {
				key, _ := cfgs[i].Key()
				b.opOf[key] = len(ph.cells) + i
			}
		}
		rs := &roundState{lat: make([]float64, len(cfgs))}
		b.round = rs
		roundStart := time.Now()
		rootID := b.tr.reserve(opRoot, roundStart, -1, len(ph.cells))
		rs.last = time.Now()
		engID := b.tr.reserve("sweep.Engine.RunConfigs", rs.last, rootID, len(ph.cells))
		b.parent.Store(int64(engID))
		results, err := eng.RunConfigs(context.Background(), cfgs)
		engEnd := time.Now()
		b.tr.finish(engID, engEnd)
		emitted, eerr := b.emitRound(results, err)
		emitEnd := time.Now()
		b.tr.add("sweep.emit", engEnd, emitEnd, rootID, len(ph.cells))
		b.tr.finish(rootID, emitEnd)

		w := window{d: emitEnd.Sub(roundStart)}
		for i, res := range results {
			if res == nil || err != nil || eerr != nil || emitted != len(cells) {
				ph.failed++
				results[i] = nil
				continue
			}
			w.configs++
			w.simInsts += res.Pipeline.Committed
		}
		ph.windows = append(ph.windows, w)
		ph.cells = append(ph.cells, cells...)
		ph.results = append(ph.results, results...)
		ph.lat = append(ph.lat, rs.lat...)
		ph.rounds++
	}
	ph.elapsed = time.Since(start)
	return ph
}

// emitRound writes a round's records as JSON and CSV, the sweep CLI's two
// output formats, and returns the number of CSV data rows written.
func (b *sweepBench) emitRound(results []*core.Result, runErr error) (int, error) {
	if runErr != nil {
		return 0, runErr
	}
	sw := sweep.NewSweep(results)
	b.emit.Reset()
	if err := sw.WriteJSON(&b.emit); err != nil {
		return 0, err
	}
	b.emit.Reset()
	if err := sw.WriteCSV(&b.emit); err != nil {
		return 0, err
	}
	return bytes.Count(b.emit.Bytes(), []byte("\n")) - 1, nil
}

// check compares every result's statistics with the golden table and
// counts the mismatches that the phase has not already counted.
func (b *sweepBench) check(ph *sweepPhase) (failed int) {
	for i, res := range ph.results {
		if res == nil {
			continue // counted when the phase ran
		}
		d, err := statsDigest(res)
		if want, ok := b.golden[ph.cells[i].String()]; err != nil || !ok || d != want {
			failed++
			ph.results[i] = nil
		}
	}
	return failed
}

// runSweep runs a sweep workload and reports its end-to-end metrics
// (untraced) or per-layer metrics (traced).
func runSweep(o opts, replay bool) (*report, error) {
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	b := &sweepBench{replay: replay, dir: o.dir, plan: newSweepPlan(o.seed), golden: golden, opOf: map[string]int{}}
	if b.ts, b.hashes, err = openCaptures(o.dir); err != nil {
		return nil, err
	}
	if o.traced {
		b.tr = newTracer()
	}
	setup, err := b.setup()
	if err != nil {
		return nil, err
	}
	ph := b.runPhase(o.seconds, sweepMinRounds, 0)
	failed := ph.failed + b.check(ph)
	r := &report{Attempted: len(ph.cells), Failed: failed, Correct: failed == 0}
	fmt.Printf("%s seed %d: %d rounds; statistics digest of the slice %s\n",
		o.workload, o.seed, ph.rounds, b.sliceDigest(ph))
	if !o.traced {
		e := endToEnd{setup: setup, phase: ph.elapsed, windows: ph.windows, opLatency: ph.lat, tail: sweepTail}
		e.describe(os.Stdout)
		e.fill(r)
		return r, nil
	}
	return b.layers(o, r, ph)
}

// sliceDigest fingerprints the statistics of the cells of the first
// sweepMinRounds rounds — the part of the slice every run of a seed
// covers — so a walker and a replay run of one seed compare at a glance.
func (b *sweepBench) sliceDigest(ph *sweepPhase) string {
	h := sha256.New()
	for i, res := range ph.results[:sweepMinRounds*len(b.plan.pairs)] {
		if res == nil {
			continue
		}
		d, _ := statsDigest(res)
		fmt.Fprintf(h, "%s %s\n", ph.cells[i], d)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// layers reports the traced run's per-layer metrics: the spans' self
// times, a second untraced pass over the same rounds for the tracing
// overhead, the deterministic work counts of the first rounds, and the
// probes run on this workload's streams and results. The sweeps keep
// results in memory and serve no HTTP, so resultdb and the server are
// timed by probes: the first round's results through a fresh disk store,
// and a short service schedule of the same seed.
func (b *sweepBench) layers(o opts, r *report, ph *sweepPhase) (*report, error) {
	var l layerSet
	var runs []simRun
	for _, h := range b.hooks {
		runs = append(runs, h.simRuns()...)
	}
	for _, st := range b.stores {
		l.memoHits += float64(st.Hits())
		l.memoMisses += float64(st.Misses())
	}
	spans := b.tr.spans
	self := selfTimes(spans)
	eng, emit := self["sweep.Engine.RunConfigs"], self["sweep.emit"]
	l.engineS = eng.total.Seconds()
	l.engineOverhead = float64(eng.self) / float64(eng.total)
	l.emitMs = float64(emit.total) / 1e6 / float64(emit.count)
	l.unattributedF = unattributed(spans, ph.elapsed, 1)
	first := sweepMinRounds * len(b.plan.pairs)
	l.countResults(ph.results[:first])
	l.residentMB = arenaResidentMB()

	tr := b.tr
	b.tr = nil
	plain := b.runPhase(0, 0, ph.rounds)
	b.tr = tr
	l.tracingOverhead = ph.elapsed.Seconds()/plain.elapsed.Seconds() - 1

	var round []*core.Result // the first round's checked results
	var cfgs []core.Config
	var keys []string
	for i, res := range ph.results[:len(b.plan.pairs)] {
		if res != nil {
			cfg := b.config(ph.cells[i])
			key, _ := cfg.Key()
			round, cfgs, keys = append(round, res), append(cfgs, cfg), append(keys, key)
		}
	}
	if err := l.probeStreams(workload.Names(), sweepInsts, cfgs, round); err != nil {
		return nil, err
	}
	if err := l.probeTrace(b.ts, b.hashes); err != nil {
		return nil, err
	}
	var err error
	if l.rdbOpenMs, l.rdbGetUs, l.rdbPutUs, err = probeResultDB(filepath.Join(b.dir, "probe-db"), round, keys); err != nil {
		return nil, err
	}
	if err := l.probeServer(filepath.Join(b.dir, "probe-server"), o.seed); err != nil {
		return nil, err
	}
	srcNs := l.genNs
	if b.replay {
		srcNs = l.windowNs
	}
	l.attribute(runs, ph.results, srcNs)
	l.fill(r)
	return r, b.tr.write(spanPath(o))
}
