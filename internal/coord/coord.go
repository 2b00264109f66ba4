// Package coord is the distributed sweep coordinator: it fans one
// design-space grid out to multiple waycached hosts and merges their
// results into output byte-identical to a single-host run.
//
// The grid is expanded exactly once, conceptually, by the deterministic
// sweep.Grid order; the coordinator never materializes it. Work moves
// through three shapes:
//
//   - A *unit* is a contiguous config-index span [lo, hi) waiting to
//     run. The initial units are the sweep.SpanOf partition of the grid;
//     failures re-split them into smaller spans.
//   - A *flight* is one attempt to run a unit as a named span job
//     ({"span": "lo-hi"}) on one host, tracked to a terminal state over
//     the host's SSE events stream with a poll fallback.
//   - A *piece* is a completed, exported span: canonical
//     core.EncodeResult payloads covering [lo, hi). Pieces tile the full
//     grid exactly once; the merge sorts them by lo and concatenates.
//
// Elasticity comes from two mechanisms on top of that model. A flight
// that stalls (no progress for StallAfter) is *rescued* by an idle worker
// once the queue is empty: when the victim has finished configs, the
// rescuer exports its finished prefix — the server's partial-progress
// watermark guarantees the prefix is complete and canonical — and banks
// it as a piece; then it flies the part of the victim's span nothing
// covers as a duplicate flight of its own. The victim keeps running:
// whichever of the two lands second is cancelled, which determinism makes
// free — both would produce identical bytes. And membership is
// *elastic*: a HostsFile is watched for changes, added hosts receive the
// grid's traces and a worker mid-run, removed hosts drain (finish their
// current flight, take no more).
//
// Every request — submit, poll, export, trace distribution — runs under
// one RetryPolicy: capped exponential backoff with deterministic seeded
// jitter, retrying transport faults and 5xx while failing fast on
// deterministic job failures and 4xx (see retry.go).
//
// Determinism contract: Grid.Configs order depends only on the grid;
// spans are contiguous index ranges of that order, so pieces concatenate
// to the full expansion no matter how they were split, rescued, or
// duplicated; records are pure functions of results. Therefore merge
// order — and the merged bytes — cannot depend on which host ran what,
// how spans were re-split, or which duplicate won. Protocol and failure
// semantics: docs/DISTRIBUTED.md.
package coord

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"waycache/internal/core"
	"waycache/internal/server"
	"waycache/internal/sweep"
	"waycache/internal/tracestore"
)

// Options configures a distributed run.
type Options struct {
	// Hosts lists waycached base URLs (e.g. "http://10.0.0.1:8080").
	// Required unless HostsFile is set.
	Hosts []string
	// HostsFile, when non-empty, names a file of host URLs (one per
	// line, #-comments allowed) that is read for initial membership and
	// then watched for changes: hosts added to the file join the run
	// mid-sweep (they receive the grid's traces first), hosts removed
	// from it drain — they finish their current flight and take no more
	// work. Hosts passed in Hosts directly are never drained by file
	// edits.
	HostsFile string
	// Shards is how many contiguous spans the grid is initially split
	// into (default: the host count). More spans than hosts gives the
	// scheduler finer-grained units; failures and rescues re-split them
	// further as needed either way.
	Shards int
	// Client issues every request (default: a plain http.Client; each
	// request is additionally bounded by RequestTimeout).
	Client *http.Client
	// RequestTimeout bounds each control request — submit, poll, cancel,
	// evict — so a host that hangs (accepts connections but never
	// answers) fails over like one that errors. Export streams, which
	// carry whole spans, get ten times this budget. Default 30s.
	RequestTimeout time.Duration
	// PollInterval is the status poll cadence and the scheduler's idle
	// re-scan tick (default 250ms).
	PollInterval time.Duration
	// MaxAttempts bounds submissions per span of work across host
	// reassignments (default 3). Work failing on its last attempt fails
	// the run. Request-level retries are separate — see Retry.
	MaxAttempts int
	// Retry shapes the per-request retry/backoff schedule shared by
	// every coordinator request (zero value: 4 attempts, 100ms base,
	// 5s cap). Jitter is deterministic, derived from Seed.
	Retry RetryPolicy
	// Seed keys the deterministic backoff jitter (default: a hash of the
	// run name). Two runs with the same seed back off on the same
	// schedule — what makes chaos tests reproducible.
	Seed uint64
	// StallAfter is how long a flight may go without progress before an
	// idle worker rescues it — banks its finished prefix and duplicates
	// the rest (default 10s). Raise it for grids with slow individual
	// configs; lower it in tests.
	StallAfter time.Duration
	// Backend, when non-nil, receives every remotely-computed result in
	// canonical encoded form (sweep.PutEncoded) as pieces are merged —
	// pass a resultdb.DB to build one local corpus from a distributed
	// run.
	Backend sweep.Backend
	// TraceStore, when non-nil, is the coordinator's local
	// content-addressed trace store: the source of truth for pushing the
	// grid's trace://<hash> references to hosts that lack them before
	// any span is submitted, and to late-joining hosts. Nil is fine even
	// for trace:// grids — as long as every referenced hash already
	// exists on at least one host, the coordinator relays it through an
	// ephemeral store.
	TraceStore *tracestore.Store
	// Progress, when non-nil, receives aggregated done/total config
	// counts across all flights and banked pieces. Calls are serialized.
	Progress sweep.Progress
	// Logf, when non-nil, receives coordinator events: span assignments,
	// host failures, rescues, membership changes.
	Logf func(format string, args ...any)
	// Name tags the run's jobs ("<name>-u<lo>-<hi>") so operators can
	// read host job lists, and so resubmissions after a lost response
	// are idempotent. Default: a hash of the grid and shard count.
	Name string
	// Token, when non-empty, is sent as "Authorization: Bearer <token>"
	// on every request — job control, events streams, exports, and trace
	// distribution — for hosts running with -auth-tokens. One fleet, one
	// credential: all hosts must accept the same token.
	Token string
}

// ShardReport is one piece's provenance in the merged output: which span
// of the grid it covers, which host ran it, under which job, at which
// attempt, and whether a rescue was involved. Reports are
// in merge (span) order and tile [0, grid size) exactly.
type ShardReport struct {
	Index    int    // merge position
	Lo, Hi   int    // config-index span [Lo, Hi) this piece covers
	Host     string // host that computed the piece
	JobID    string // job id on that host
	Configs  int    // configurations in the piece (Hi - Lo)
	Attempts int    // submissions this span of work needed (1 = clean)
	// Stolen marks a straggler's finished prefix banked by a rescue;
	// Speculative marks a piece won by a rescue flight.
	Stolen      bool
	Speculative bool
	// TraceFallbacks relays the remote engine's walker-fallback report
	// (benchmark -> reason) so a distributed -trace run that re-simulated
	// somewhere is visible at the coordinator.
	TraceFallbacks map[string]string
	// Warnings carries non-fatal anomalies touching this span: abandoned
	// jobs that could not be confirmed stopped, superseded duplicates,
	// and the like.
	Warnings []string
}

// HostReport is one host's participation summary.
type HostReport struct {
	Host         string
	State        string // "active", "retired", "draining", "drained"
	Joined       bool   // joined mid-run via the hosts file
	Pieces       int    // pieces banked from this host
	Configs      int    // configurations those pieces hold
	Flights      int    // span jobs launched on this host
	Steals       int    // stragglers' finished prefixes this host banked
	Speculations int    // rescue flights this host launched
}

// Result is a completed distributed run.
type Result struct {
	// Sweep holds the merged records in grid order — byte-identical to a
	// single-host run of the same grid.
	Sweep *sweep.Sweep
	// Shards reports per-piece provenance, in merge order.
	Shards []ShardReport
	// Hosts reports per-host participation, sorted by URL.
	Hosts []HostReport
	// Ingested counts results written to Options.Backend.
	Ingested int
	// Warnings aggregates every non-fatal anomaly of the run.
	Warnings []string
}

// jobFailedError marks a deterministic remote failure (the job itself
// reached "failed"): retrying on another host would fail identically, so
// it aborts the run instead of burning attempts.
type jobFailedError struct{ msg string }

func (e *jobFailedError) Error() string { return e.msg }

// errSuperseded marks a flight the coordinator itself abandoned because
// pieces already cover its span — expected, not a fault.
var errSuperseded = errors.New("flight superseded by a duplicate")

// Host lifecycle states.
const (
	hostActive   = "active"
	hostDraining = "draining"
	hostDrained  = "drained"
	hostRetired  = "retired"
)

// Run executes the grid across the hosts and returns the merged result.
// The grid must expand within the hosts' job size limit
// (server.MaxGridSize); cancellation of ctx aborts the run promptly.
func Run(ctx context.Context, g sweep.Grid, o Options) (*Result, error) {
	initial, fileHosts, err := initialHosts(o)
	if err != nil {
		return nil, err
	}
	client := o.Client
	if client == nil {
		client = &http.Client{}
	}
	poll := o.PollInterval
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	reqTimeout := o.RequestTimeout
	if reqTimeout <= 0 {
		reqTimeout = 30 * time.Second
	}
	maxAttempts := o.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 3
	}
	stall := o.StallAfter
	if stall <= 0 {
		stall = 10 * time.Second
	}
	logf := o.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	// Normalize exactly as the server will (an empty benchmark list means
	// the full suite, trace references validate): span-size accounting
	// and the grid equality behind idempotent named re-submission must
	// both see the grid the hosts execute.
	g, err = g.Normalize()
	if err != nil {
		return nil, err
	}
	name := o.Name
	if name == "" {
		name = defaultName(g, o.Shards)
	}
	seed := o.Seed
	if seed == 0 {
		h := fnv.New64a()
		h.Write([]byte(name))
		seed = h.Sum64()
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// The distributor outlives the initial push: late joiners get the
	// same traces before their worker starts. Its ephemeral relay store
	// (when no local one was given) lives until the run ends.
	dist, distCleanup, err := newDistributor(g, o.TraceStore)
	if err != nil {
		return nil, err
	}
	defer distCleanup()
	total := g.Size()
	c := &run{
		transport: &transport{client: client, token: o.Token,
			reqTimeout: reqTimeout, retry: newRetrier(o.Retry, seed)},
		grid: g, name: name, total: total,
		poll: poll, stall: stall, maxAttempts: maxAttempts,
		dist: dist, progress: o.Progress, logf: logf, cancel: cancel,
		wake:  make(chan struct{}),
		done:  make(chan struct{}),
		idle:  make(chan struct{}),
		hosts: make(map[string]*hostState),
	}
	// Bring every starting host up to date on every referenced trace;
	// hosts that cannot be are dropped.
	hosts := initial
	for _, hash := range dist.hashes {
		if hosts, err = c.distribute(runCtx, hash, hosts); err != nil {
			return nil, err
		}
	}
	if len(hosts) == 0 {
		return nil, errors.New("coord: no host can serve the grid's trace references")
	}

	nShards := o.Shards
	if nShards <= 0 {
		nShards = len(hosts)
	}
	for i := 0; i < nShards; i++ {
		lo, hi := sweep.SpanOf(total, i, nShards)
		if hi > lo {
			c.queue = append(c.queue, &unit{lo: lo, hi: hi})
		}
	}
	if total == 0 {
		// Degenerate but well-defined: nothing to run, nothing to merge.
		return c.merge(o.Backend)
	}

	c.mu.Lock()
	for _, h := range hosts {
		c.hosts[h] = &hostState{url: h, state: hostActive, workerLive: true}
		c.liveWorkers++
	}
	c.mu.Unlock()
	for _, h := range hosts {
		go c.hostWorker(runCtx, h)
	}
	if o.HostsFile != "" {
		go c.watchHosts(runCtx, o.HostsFile, fileHosts)
	}

	select {
	case <-c.done:
	case <-c.idle: // every worker exited with work outstanding
	case <-ctx.Done():
	}
	cancel()
	<-c.idle // bounded: abandon budgets cap straggling workers

	c.mu.Lock()
	err = c.fatal
	c.mu.Unlock()
	if err == nil {
		err = ctx.Err()
	}
	if err == nil && !c.finished() {
		err = errors.New("coord: run stopped with unfinished spans")
	}
	if err != nil {
		return nil, err
	}
	return c.merge(o.Backend)
}

// initialHosts resolves the starting membership: Hosts plus the hosts
// file's current contents, deduplicated in order. fileHosts records which
// came from the file (only those are drainable by later file edits).
func initialHosts(o Options) (hosts []string, fileHosts map[string]bool, err error) {
	fileHosts = make(map[string]bool)
	seen := make(map[string]bool)
	for _, h := range o.Hosts {
		if h != "" && !seen[h] {
			seen[h] = true
			hosts = append(hosts, h)
		}
	}
	if o.HostsFile != "" {
		data, err := os.ReadFile(o.HostsFile)
		if err != nil {
			return nil, nil, fmt.Errorf("coord: reading hosts file: %w", err)
		}
		for _, h := range parseHostsFile(data) {
			fileHosts[h] = true
			if !seen[h] {
				seen[h] = true
				hosts = append(hosts, h)
			}
		}
	}
	if len(hosts) == 0 {
		return nil, nil, errors.New("coord: no hosts")
	}
	return hosts, fileHosts, nil
}

// parseHostsFile extracts host URLs: one per line, blank lines and
// #-comments ignored.
func parseHostsFile(data []byte) []string {
	var hosts []string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		hosts = append(hosts, line)
	}
	return hosts
}

// unit is a contiguous span of grid work waiting to run.
type unit struct {
	lo, hi    int
	attempts  int       // submissions so far (incremented when pulled)
	notBefore time.Time // backoff gate after a failure
}

// flight is one in-progress execution of a span on a host.
type flight struct {
	lo, hi int
	host   string
	jobID  string // set once the submit succeeds
	unit   *unit
	spec   bool // a rescue flight, duplicating part of a stalled one

	lastProgress time.Time // last time done advanced; stall detector input
	done         int       // configs finished, from status events

	rescuing   bool // a rescuer is probing this flight's finished prefix
	superseded bool // pieces already cover its span; it is being abandoned
}

// piece is a completed, banked span of canonical results.
type piece struct {
	lo, hi    int
	entries   []server.ExportEntry
	results   []*core.Result
	host      string
	jobID     string
	attempts  int
	stolen    bool
	spec      bool
	fallbacks map[string]string
}

// hostState tracks one host's lifecycle and counters.
type hostState struct {
	url        string
	state      string
	joined     bool // added mid-run via the hosts file
	workerLive bool

	pieces, configs, flights, steals, specs int
}

type spanWarning struct {
	lo, hi int
	msg    string
}

// run is the mutable state of one distributed execution.
type run struct {
	*transport
	grid  sweep.Grid
	name  string
	total int

	poll, stall time.Duration
	maxAttempts int

	dist     distributor
	progress sweep.Progress
	logf     func(string, ...any)
	cancel   context.CancelFunc

	done chan struct{} // closed when every config is banked
	idle chan struct{} // closed when no worker is live or joining

	mu          sync.Mutex
	wake        chan struct{} // closed+replaced on every state change
	queue       []*unit
	flights     []*flight
	pieces      []piece
	covered     int
	hosts       map[string]*hostState
	liveWorkers int
	joining     int
	idleClosed  bool
	doneClosed  bool
	warnings    []spanWarning
	fatal       error
}

func (c *run) finished() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.covered >= c.total
}

// bumpLocked broadcasts a state change to every idle worker.
func (c *run) bumpLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// fail records the first fatal error and aborts the run.
func (c *run) fail(err error) {
	c.mu.Lock()
	if c.fatal == nil {
		c.fatal = err
	}
	c.bumpLocked()
	c.mu.Unlock()
	c.cancel()
}

// finishLocked closes done once full coverage is reached.
func (c *run) finishLocked() {
	if c.covered >= c.total && !c.doneClosed {
		c.doneClosed = true
		close(c.done)
	}
}

// closeIdleLocked closes idle once no worker is live or pending.
func (c *run) closeIdleLocked() {
	if c.liveWorkers == 0 && c.joining == 0 && !c.idleClosed {
		c.idleClosed = true
		close(c.idle)
	}
}

// noteProgress folds one flight's done count into the aggregate feed and
// feeds the stall detector.
func (c *run) noteProgress(f *flight, done int) {
	c.mu.Lock()
	if done > f.done {
		f.done = done
		f.lastProgress = time.Now()
	}
	if c.progress != nil {
		sum := c.covered
		for _, fl := range c.flights {
			sum += fl.done
		}
		if sum > c.total {
			sum = c.total // a rescued span counts twice; clamp
		}
		c.progress(sum, c.total)
	}
	c.mu.Unlock()
}

// noteWarning records a non-fatal anomaly touching [lo, hi).
func (c *run) noteWarning(lo, hi int, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	c.logf("coord: warning: %s", msg)
	c.mu.Lock()
	c.warnings = append(c.warnings, spanWarning{lo: lo, hi: hi, msg: msg})
	c.mu.Unlock()
}

// gaps returns the maximal subranges of [lo, hi) that no interval of
// cover touches, in order. Intervals may overlap, nest, or lie partly or
// wholly outside [lo, hi); cover is sorted in place.
func gaps(lo, hi int, cover [][2]int) [][2]int {
	sort.Slice(cover, func(i, j int) bool { return cover[i][0] < cover[j][0] })
	var out [][2]int
	at := lo
	for _, iv := range cover {
		if iv[1] <= lo || iv[0] >= hi {
			continue // outside [lo, hi): its ends would invent a gap
		}
		if iv[0] > at {
			out = append(out, [2]int{at, iv[0]})
		}
		at = max(at, iv[1])
	}
	if at < hi {
		out = append(out, [2]int{at, hi})
	}
	return out
}

// bankedLocked returns the spans of the banked pieces. Piece counts are small
// (a few per host), so callers rescan them freely.
func (c *run) bankedLocked() [][2]int {
	cover := make([][2]int, 0, len(c.pieces)+len(c.flights))
	for _, p := range c.pieces {
		cover = append(cover, [2]int{p.lo, p.hi})
	}
	return cover
}

// uncoveredLocked returns the maximal subranges of [lo, hi) not yet
// covered by banked pieces, in order.
func (c *run) uncoveredLocked(lo, hi int) [][2]int {
	return gaps(lo, hi, c.bankedLocked())
}

// unflownLocked returns the maximal subranges of [lo, hi) that neither a
// banked piece nor a live flight other than except covers, in order. A
// superseded flight is being abandoned and covers nothing.
func (c *run) unflownLocked(lo, hi int, except *flight) [][2]int {
	cover := c.bankedLocked()
	for _, f := range c.flights {
		if f != except && !f.superseded {
			cover = append(cover, [2]int{f.lo, f.hi})
		}
	}
	return gaps(lo, hi, cover)
}

// bankLocked commits a completed span's output, trimmed to whatever is
// not already covered (a rescue may have banked a prefix; a faster
// duplicate may have banked everything). Returns configs newly covered.
func (c *run) bankLocked(p piece) int {
	added := 0
	for _, iv := range c.uncoveredLocked(p.lo, p.hi) {
		sub := piece{
			lo: iv[0], hi: iv[1],
			entries: p.entries[iv[0]-p.lo : iv[1]-p.lo],
			results: p.results[iv[0]-p.lo : iv[1]-p.lo],
			host:    p.host, jobID: p.jobID, attempts: p.attempts,
			stolen: p.stolen, spec: p.spec, fallbacks: p.fallbacks,
		}
		c.pieces = append(c.pieces, sub)
		added += iv[1] - iv[0]
	}
	c.covered += added
	if added > 0 {
		if h := c.hosts[p.host]; h != nil {
			h.pieces++
			h.configs += added
		}
	}
	c.finishLocked()
	c.bumpLocked()
	return added
}

func (c *run) removeFlightLocked(f *flight) {
	for i, fl := range c.flights {
		if fl == f {
			c.flights = append(c.flights[:i], c.flights[i+1:]...)
			return
		}
	}
}

// --- the scheduler ---

// nextWork blocks until the worker for host has something to fly — a
// queued unit, or a rescue of a stalled flight — and returns it, or
// returns nil when there is nothing ever again (run over, host drained
// or retired, fatal error). It is the single place scheduling policy
// lives.
func (c *run) nextWork(ctx context.Context, host string) *flight {
	for {
		c.mu.Lock()
		h := c.hosts[host]
		if ctx.Err() != nil || c.fatal != nil || c.covered >= c.total || h.state != hostActive {
			c.mu.Unlock()
			return nil
		}
		now := time.Now()

		// 1. A ready queued unit — earliest span first, for determinism
		// and because earlier spans gate the export watermark of nothing
		// (pieces are independent; this is just a stable choice).
		var next *unit
		nextIdx := -1
		backoffWait := time.Duration(-1)
		for idx, u := range c.queue {
			if !u.notBefore.After(now) {
				if next == nil || u.lo < next.lo {
					next, nextIdx = u, idx
				}
			} else if d := u.notBefore.Sub(now); backoffWait < 0 || d < backoffWait {
				backoffWait = d
			}
		}
		if next != nil {
			c.queue = append(c.queue[:nextIdx], c.queue[nextIdx+1:]...)
			next.attempts++
			f := &flight{lo: next.lo, hi: next.hi, host: host, unit: next, lastProgress: now}
			c.flights = append(c.flights, f)
			h.flights++
			c.mu.Unlock()
			return f
		}

		// 2. Rescue a stalled flight. Only a victim with a job and a
		// finished config is worth a probe: a host that has finished
		// nothing is likely frozen solid and would not answer one.
		if v := c.rescueVictimLocked(host, now); v != nil {
			probe := v.jobID != "" && v.done >= 1
			v.rescuing = probe
			c.mu.Unlock()
			if f := c.rescue(ctx, host, v, probe); f != nil {
				return f
			}
			continue
		}

		// Idle: wait for a state change, a backoff gate, or a re-scan
		// tick (stall ages cross thresholds without any event firing).
		w := c.wake
		c.mu.Unlock()
		d := c.poll
		if backoffWait >= 0 && backoffWait < d {
			d = backoffWait
		}
		t := time.NewTimer(d)
		select {
		case <-ctx.Done():
			t.Stop()
			return nil
		case <-w:
			t.Stop()
		case <-t.C:
		}
	}
}

// rescueVictimLocked picks the stalled flight an idle worker on host
// should rescue: not on host, not itself a rescue flight, not already
// being probed or abandoned, and with part of its span that no banked
// piece or other live flight covers. Oldest stall first.
func (c *run) rescueVictimLocked(host string, now time.Time) *flight {
	var best *flight
	for _, f := range c.flights {
		if f.host == host || f.spec || f.rescuing || f.superseded ||
			now.Sub(f.lastProgress) < c.stall || len(c.unflownLocked(f.lo, f.hi, f)) == 0 {
			continue
		}
		if best == nil || f.lastProgress.Before(best.lastProgress) {
			best = f
		}
	}
	return best
}

// rescue rescues the stalled flight v for the idle worker on host. With
// probe set it first banks v's finished prefix, as far as the job's
// watermark vouches for it; a probe that finds the job terminal or fully
// finished leaves v to its own worker. Then it returns a rescue flight
// over the first part of v's span that nothing covers, or nil when
// nothing is left. v is not cancelled here: whichever of v and the
// rescue flight lands second is superseded, and land abandons it.
func (c *run) rescue(ctx context.Context, host string, v *flight, probe bool) *flight {
	var prefix *piece
	if probe {
		st, err := c.pollStatus(ctx, v.host, v.jobID)
		w := st.Watermark
		if err == nil && (st.Terminal() || w >= v.hi-v.lo) {
			// Restart the stall clock so v is not probed again at once.
			c.mu.Lock()
			v.rescuing = false
			v.lastProgress = time.Now()
			c.mu.Unlock()
			return nil
		}
		if err == nil && w >= 1 {
			out, err := c.exportJob(ctx, v.host, v.jobID, w)
			if err == nil {
				prefix = &piece{
					lo: v.lo, hi: v.lo + w, entries: out.entries, results: out.results,
					host: v.host, jobID: v.jobID, attempts: v.unit.attempts,
					stolen: true, fallbacks: st.TraceFallbacks,
				}
			} else {
				c.logf("coord: rescue of span %s from %s: prefix export failed: %v",
					sweep.FormatSpan(v.lo, v.hi), v.host, err)
			}
		}
	}
	c.mu.Lock()
	v.rescuing = false
	c.bumpLocked()
	h := c.hosts[host]
	banked := prefix != nil && c.bankLocked(*prefix) > 0
	if banked {
		h.steals++
	}
	var f *flight
	// A v that failed meanwhile is gone: its worker requeued what nothing
	// covers.
	if rest := c.unflownLocked(v.lo, v.hi, v); len(rest) > 0 && slices.Contains(c.flights, v) {
		f = &flight{lo: rest[0][0], hi: rest[0][1], host: host, unit: v.unit, spec: true, lastProgress: time.Now()}
		c.flights = append(c.flights, f)
		h.flights++
		h.specs++
	}
	c.mu.Unlock()
	if banked {
		c.logf("coord: %s banked a %d-config prefix of span %s from stalled %s",
			host, prefix.hi-prefix.lo, sweep.FormatSpan(v.lo, v.hi), v.host)
	}
	if f != nil {
		c.logf("coord: %s rescuing span %s of stalled %s's flight %s",
			host, sweep.FormatSpan(f.lo, f.hi), v.host, sweep.FormatSpan(v.lo, v.hi))
	}
	return f
}

// hostWorker runs one host's lifecycle: take work, fly it, land or
// recover, until the run ends or the host leaves it.
func (c *run) hostWorker(ctx context.Context, host string) {
	defer c.workerExit(host)
	for f := c.nextWork(ctx, host); f != nil; f = c.nextWork(ctx, host) {
		c.fly(ctx, f)
	}
}

// workerExit settles a departing worker's host state and, when it was
// the last one with work outstanding, fails the run.
func (c *run) workerExit(host string) {
	c.mu.Lock()
	h := c.hosts[host]
	h.workerLive = false
	if h.state == hostDraining {
		h.state = hostDrained
		c.logf("coord: host %s drained", host)
	}
	c.liveWorkers--
	starved := c.liveWorkers == 0 && c.joining == 0 && c.covered < c.total && c.fatal == nil
	c.closeIdleLocked()
	c.bumpLocked()
	c.mu.Unlock()
	if starved {
		c.fail(errors.New("coord: no live hosts remain with spans outstanding"))
	}
}

// fly runs one flight to completion and routes the outcome: bank the
// piece, absorb a benign supersede, abort on a deterministic failure, or
// retire the host and requeue what is still uncovered.
func (c *run) fly(ctx context.Context, f *flight) {
	out, fallbacks, err := c.runFlight(ctx, f)
	if err == nil {
		c.land(f, out, fallbacks)
		return
	}
	c.mu.Lock()
	c.removeFlightLocked(f)
	c.bumpLocked()
	c.mu.Unlock()
	if errors.Is(err, errSuperseded) {
		c.logf("coord: span %s flight on %s superseded", sweep.FormatSpan(f.lo, f.hi), f.host)
		return
	}
	var jf *jobFailedError
	if errors.As(err, &jf) {
		c.fail(fmt.Errorf("coord: span %s failed deterministically on %s: %w",
			sweep.FormatSpan(f.lo, f.hi), f.host, err))
		return
	}
	if ctx.Err() != nil || c.finished() {
		return
	}
	c.flightFailed(f, err)
}

// land banks a finished flight's output and cancels any duplicate
// flights its coverage made redundant.
func (c *run) land(f *flight, out flightOutput, fallbacks map[string]string) {
	c.mu.Lock()
	c.removeFlightLocked(f)
	added := c.bankLocked(piece{
		lo: f.lo, hi: f.hi, entries: out.entries, results: out.results,
		host: f.host, jobID: f.jobID, attempts: f.unit.attempts,
		spec: f.spec, fallbacks: fallbacks,
	})
	var rivals []*flight
	for _, o := range c.flights {
		if o != f && len(c.uncoveredLocked(o.lo, o.hi)) == 0 && !o.superseded {
			o.superseded = true
			if o.jobID != "" { // otherwise runFlight abandons it once its submit returns
				rivals = append(rivals, o)
			}
		}
	}
	c.mu.Unlock()
	if added == 0 {
		c.logf("coord: span %s from %s arrived fully covered; dropped",
			sweep.FormatSpan(f.lo, f.hi), f.host)
	}
	for _, r := range rivals {
		c.logf("coord: cancelling superseded duplicate of span %s on %s (job %s)",
			sweep.FormatSpan(r.lo, r.hi), r.host, r.jobID)
		if outcome, clean := c.abandon(r.host, r.jobID); !clean {
			c.noteWarning(r.lo, r.hi, "superseded job %s on %s: %s", r.jobID, r.host, outcome)
		}
	}
}

// flightFailed retires the flight's host and requeues whatever part of
// its span is neither banked nor covered by another live flight, with a
// backoff gate so a flapping fleet doesn't thrash.
func (c *run) flightFailed(f *flight, err error) {
	c.logf("coord: host %s failed on span %s (attempt %d): %v",
		f.host, sweep.FormatSpan(f.lo, f.hi), f.unit.attempts, err)
	c.mu.Lock()
	h := c.hosts[f.host]
	if h.state == hostActive {
		h.state = hostRetired
	}
	// Spans another live flight is already running (a rescue flight
	// outliving its failed victim, or vice versa) stay out: requeueing
	// those would only manufacture duplicate work.
	requeue := c.unflownLocked(f.lo, f.hi, f)
	if len(requeue) > 0 && f.unit.attempts >= c.maxAttempts {
		c.mu.Unlock()
		c.fail(fmt.Errorf("coord: span %s failed %d times, last on %s: %w",
			sweep.FormatSpan(f.lo, f.hi), f.unit.attempts, f.host, err))
		return
	}
	gate := time.Now().Add(c.retry.policy.delay(c.retry.seed,
		"requeue "+sweep.FormatSpan(f.lo, f.hi), f.unit.attempts-1))
	for _, iv := range requeue {
		c.queue = append(c.queue, &unit{
			lo: iv[0], hi: iv[1], attempts: f.unit.attempts, notBefore: gate,
		})
	}
	c.bumpLocked()
	c.mu.Unlock()
	if f.jobID == "" {
		// The submit itself failed — but its response may have been lost
		// after the server enqueued the job. Hunt the deterministic name
		// down so no zombie job grinds the retired host.
		if outcome, clean := c.abandonByName(f.host, c.unitName(f.lo, f.hi)); !clean {
			c.noteWarning(f.lo, f.hi, "lost submission %s on %s: %s",
				c.unitName(f.lo, f.hi), f.host, outcome)
		}
	}
}

// --- membership ---

// watchHosts polls the hosts file for membership changes: new hosts join
// (traces first, then a worker), file-sourced hosts that disappear
// drain. fileHosts tracks which hosts the file is authoritative for.
func (c *run) watchHosts(ctx context.Context, path string, fileHosts map[string]bool) {
	var lastMod time.Time
	if st, err := os.Stat(path); err == nil {
		lastMod = st.ModTime()
	}
	tick := time.NewTicker(c.poll)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		st, err := os.Stat(path)
		if err != nil {
			continue // transient (atomic-rename mid-swap); keep current membership
		}
		if st.ModTime().Equal(lastMod) {
			continue
		}
		lastMod = st.ModTime()
		data, err := os.ReadFile(path)
		if err != nil {
			c.logf("coord: hosts file %s unreadable (%v); keeping membership", path, err)
			continue
		}
		listed := make(map[string]bool)
		for _, h := range parseHostsFile(data) {
			listed[h] = true
		}
		c.applyMembership(ctx, listed, fileHosts)
	}
}

// applyMembership reconciles the run's hosts with the file's listing.
func (c *run) applyMembership(ctx context.Context, listed, fileHosts map[string]bool) {
	c.mu.Lock()
	var joins []string
	for h := range listed {
		fileHosts[h] = true
		hs, known := c.hosts[h]
		switch {
		case !known:
			joins = append(joins, h)
		case hs.state == hostDraining:
			// Re-listed before its worker noticed: cancel the drain.
			hs.state = hostActive
			c.logf("coord: host %s re-listed; drain cancelled", h)
		case !hs.workerLive && (hs.state == hostDrained || hs.state == hostRetired):
			// A drained or even retired host re-listed by the operator
			// gets a fresh chance (retired usually means it crashed; the
			// operator re-adding it asserts it is back).
			joins = append(joins, h)
		}
	}
	var drains []string
	for h, hs := range c.hosts {
		if fileHosts[h] && !listed[h] && hs.state == hostActive {
			hs.state = hostDraining
			drains = append(drains, h)
		}
	}
	if len(drains) > 0 {
		c.bumpLocked()
	}
	for _, h := range joins {
		c.joining++
		go c.admitHost(ctx, h)
	}
	c.mu.Unlock()
	for _, h := range drains {
		c.logf("coord: host %s removed from hosts file; draining (finishes its current span, takes no more)", h)
	}
}

// admitHost brings a joining host up to date on traces, then starts its
// worker. Called with c.joining already incremented.
func (c *run) admitHost(ctx context.Context, host string) {
	err := c.ensureHost(ctx, host, c.activeHosts())
	c.mu.Lock()
	c.joining--
	if err != nil || ctx.Err() != nil || c.fatal != nil || c.idleClosed {
		c.closeIdleLocked()
		c.mu.Unlock()
		if err != nil {
			c.logf("coord: host %s cannot join: %v", host, err)
		}
		return
	}
	hs := c.hosts[host]
	if hs == nil {
		hs = &hostState{url: host, joined: true}
		c.hosts[host] = hs
	}
	hs.state = hostActive
	hs.workerLive = true
	c.liveWorkers++
	c.bumpLocked()
	c.mu.Unlock()
	c.logf("coord: host %s joined the run", host)
	go c.hostWorker(ctx, host)
}

// activeHosts snapshots the URLs of currently active hosts (trace
// donors for late joiners).
func (c *run) activeHosts() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for h, hs := range c.hosts {
		if hs.state == hostActive {
			out = append(out, h)
		}
	}
	sort.Strings(out)
	return out
}

// --- one flight's remote lifecycle ---

// flightOutput is what one completed flight hands the banker.
type flightOutput struct {
	entries []server.ExportEntry // canonical key+payload, span order
	results []*core.Result       // decoded payloads, same order
}

// runFlight drives one span job on one host: submit, follow it to a
// terminal state (events stream, then polling), export canonical
// results, and (best-effort) evict the remote job. Any transport or
// server failure is a host-level error; a remote "failed" state is a
// *jobFailedError; a flight the coordinator itself superseded is
// errSuperseded.
func (c *run) runFlight(ctx context.Context, f *flight) (flightOutput, map[string]string, error) {
	st, err := c.submit(ctx, f)
	if err != nil {
		return flightOutput{}, nil, err
	}
	c.mu.Lock()
	f.jobID = st.ID
	superseded := f.superseded
	c.bumpLocked() // the flight is now worth a prefix probe
	c.mu.Unlock()
	if superseded {
		// land superseded it while the submit was in flight and, with no
		// job ID to cancel, left the abandon to us.
		if outcome, clean := c.abandon(f.host, st.ID); !clean {
			c.noteWarning(f.lo, f.hi, "superseded job %s on %s: %s", st.ID, f.host, outcome)
		}
		return flightOutput{}, nil, errSuperseded
	}

	var out flightOutput
	st, err = c.follow(ctx, f.host, st, true, c.poll, func(done int) { c.noteProgress(f, done) })
	if err == nil && st.State == "done" {
		out, err = c.exportJob(ctx, f.host, st.ID, -1)
	}
	// f had its job ID by now, so if land superseded it, land has
	// abandoned the job already and a second abandon would only spend
	// another budget on it.
	c.mu.Lock()
	superseded = f.superseded
	c.mu.Unlock()
	if err != nil {
		if superseded {
			// A 404 is the host answering after land evicted the job.
			// Any other failure is the host's own, and fly retires it.
			var hs *httpStatusError
			if errors.As(err, &hs) && hs.status == http.StatusNotFound {
				return flightOutput{}, nil, errSuperseded
			}
			return flightOutput{}, nil, err
		}
		if outcome, clean := c.abandon(f.host, st.ID); !clean {
			c.noteWarning(f.lo, f.hi, "abandoned job %s on %s: %s", st.ID, f.host, outcome)
		}
		return flightOutput{}, nil, err
	}
	switch st.State {
	case "failed":
		return flightOutput{}, nil, &jobFailedError{msg: st.Error}
	case "cancelled":
		if superseded {
			return flightOutput{}, nil, errSuperseded
		}
		// Someone else (an operator, a previous coordinator run's
		// abandon) cancelled the job out from under us. Unlike a
		// "failed" job this says nothing about the work itself, so it is
		// a host-level error: retry the span elsewhere.
		return flightOutput{}, nil, fmt.Errorf("job %s was cancelled on %s", st.ID, f.host)
	}
	if want := f.hi - f.lo; len(out.results) != want {
		return flightOutput{}, nil,
			fmt.Errorf("span %s export from %s holds %d results, want %d",
				sweep.FormatSpan(f.lo, f.hi), f.host, len(out.results), want)
	}
	// Evict the remote job so completed spans do not pin their results
	// in host memory; the host's store keeps the simulations either way.
	c.bestEffort(ctx, http.MethodDelete, f.host+"/api/v1/jobs/"+st.ID)
	return out, st.TraceFallbacks, nil
}

// follow tracks a job to a terminal state and returns that status. Every
// status, streamed or polled, takes the same step: note progress, stop if
// terminal. With stream set, statuses come from the host's SSE events
// stream, and the follower falls back to polling every interval when the
// stream cannot be opened or breaks (an older host, a buffering proxy, a
// dropped or truncated connection). A broken stream is not by itself a
// host failure: polling gets a clean shot at the same job before the span
// is reassigned. The returned status always carries the job ID, even on
// error, so the caller can abandon the remote job.
func (c *run) follow(ctx context.Context, host string, st server.JobStatus, stream bool,
	every time.Duration, note func(done int)) (server.JobStatus, error) {
	poll := func() (server.JobStatus, error) {
		if err := sleepCtx(ctx, every); err != nil {
			return server.JobStatus{}, err
		}
		return c.pollStatus(ctx, host, st.ID)
	}
	next, stop := poll, func() {}
	if stream {
		next, stop = c.events(ctx, host, st.ID)
	}
	defer stop()
	for {
		note(st.Done)
		if st.Terminal() {
			return st, nil
		}
		s, err := next()
		switch {
		case err == nil:
			st = s
		case stream && ctx.Err() == nil:
			c.logf("coord: events stream for %s on %s failed (%v); polling instead", st.ID, host, err)
			stop()
			next, stream = poll, false
		default:
			return st, err // st keeps the job ID for the caller's abandon
		}
	}
}

// events opens a job's SSE events stream and returns a function yielding
// its statuses in order (an open failure surfaces from the first call)
// and one closing the stream. The stream has no overall deadline, but the
// server heartbeats idle streams, so a request timeout of silence means a
// dead or wedged host and trips the inactivity watchdog. The watchdog
// arms before the connection is made (a frozen host accepts TCP and then
// never sends headers) and re-arms before every read.
func (c *run) events(ctx context.Context, host, id string) (next func() (server.JobStatus, error), stop func()) {
	sctx, cancel := context.WithCancel(ctx)
	watchdog := time.AfterFunc(c.reqTimeout, cancel)
	stop = func() { watchdog.Stop(); cancel() }
	fail := func(err error) func() (server.JobStatus, error) {
		return func() (server.JobStatus, error) { return server.JobStatus{}, err }
	}
	req, err := c.newRequest(sctx, http.MethodGet, host+"/api/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return fail(err), stop
	}
	//wclint:retry-ok SSE stream: single long-lived connection guarded by the inactivity watchdog; any failure falls back to the retry-governed poll loop
	resp, err := c.client.Do(req)
	if err != nil {
		return fail(err), stop
	}
	stop = func() { watchdog.Stop(); cancel(); resp.Body.Close() }
	if resp.StatusCode != http.StatusOK {
		return fail(&httpStatusError{status: resp.StatusCode}), stop
	}
	sc := bufio.NewScanner(resp.Body)
	return func() (server.JobStatus, error) {
		for {
			watchdog.Reset(c.reqTimeout)
			if !sc.Scan() {
				break
			}
			data, ok := strings.CutPrefix(sc.Text(), "data: ")
			if !ok {
				continue // "event:" labels, heartbeat comments, blank separators
			}
			var st server.JobStatus
			if err := json.Unmarshal([]byte(data), &st); err != nil {
				return server.JobStatus{}, fmt.Errorf("bad event payload: %w", err)
			}
			return st, nil
		}
		if err := sc.Err(); err != nil {
			return server.JobStatus{}, err
		}
		return server.JobStatus{}, errors.New("stream ended without a terminal status")
	}, stop
}

// abandon best-effort cancels and evicts a job the coordinator is
// walking away from — a failed flight, a superseded duplicate, Ctrl-C.
// It uses its own short-lived context because the run context may
// already be dead, and an abandoned job must still be stopped: left alone it would keep grinding on the host with its export
// payloads pinned until eviction. The returned outcome says what
// actually happened; clean is false when the job may still be running or
// pinned, which callers surface as a ShardReport warning instead of
// silence.
func (c *run) abandon(host, id string) (outcome string, clean bool) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c.bestEffort(ctx, http.MethodPost, host+"/api/v1/jobs/"+id+"/cancel")
	// Eviction needs a terminal state; a just-cancelled running job
	// drains first. Follow it briefly within the abandon budget rather
	// than issuing one guaranteed-409 delete.
	st, err := c.pollStatus(ctx, host, id)
	if err == nil {
		st, err = c.follow(ctx, host, st, false, 250*time.Millisecond, func(int) {})
	}
	switch {
	case err == nil:
		c.bestEffort(ctx, http.MethodDelete, host+"/api/v1/jobs/"+id)
		return fmt.Sprintf("reached %q and was evicted", st.State), true
	case ctx.Err() != nil:
		return "still running when the abandon budget expired", false
	default:
		// Host unreachable: nothing provably running. If the host is
		// truly dead nothing is leaked either; if it is frozen the job
		// may thaw later, which the caller should know.
		return fmt.Sprintf("host unreachable while confirming cancellation (%v)", err), false
	}
}

// abandonByName handles the lost-submission case: the submit request
// errored after the server may have enqueued the job (e.g. a response
// timeout), leaving the coordinator without a job ID. Span job names are
// deterministic, so look the job up by name on the host and abandon it
// if it exists — otherwise a zombie named job would grind the retired
// host and pin its export payloads.
func (c *run) abandonByName(host, name string) (outcome string, clean bool) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var jobs []server.JobStatus
	if err := c.send(ctx, "hunt "+name, control, http.MethodGet, host+"/api/v1/jobs", nil, decodeJSON(&jobs)); err != nil {
		return fmt.Sprintf("host unreachable while hunting the lost submission (%v)", err), false
	}
	for _, st := range jobs {
		if st.Name == name && !st.Terminal() {
			return c.abandon(host, st.ID)
		}
	}
	return "no live job carries the lost submission's name", true
}

// unitName is the deterministic remote job name for span [lo, hi).
func (c *run) unitName(lo, hi int) string {
	return fmt.Sprintf("%s-u%d-%d", c.name, lo, hi)
}

func (c *run) submit(ctx context.Context, f *flight) (server.JobStatus, error) {
	name := c.unitName(f.lo, f.hi)
	body, err := json.Marshal(server.JobRequest{
		Grid: c.grid,
		Name: name,
		Span: sweep.FormatSpan(f.lo, f.hi),
	})
	if err != nil {
		return server.JobStatus{}, err
	}
	var st server.JobStatus
	// Submission is idempotent by name (a resubmission of the same work
	// gets the live job's status back), so request-level retries after a
	// lost response are safe.
	err = c.send(ctx, "submit "+name, control, http.MethodPost, f.host+"/api/v1/jobs",
		&payload{data: bytes.NewReader(body), size: int64(len(body)), contentType: "application/json"},
		decodeJSON(&st))
	if err != nil {
		return server.JobStatus{}, fmt.Errorf("submitting span %s to %s: %w",
			sweep.FormatSpan(f.lo, f.hi), f.host, err)
	}
	return st, nil
}

func (c *run) pollStatus(ctx context.Context, host, id string) (server.JobStatus, error) {
	var st server.JobStatus
	err := c.send(ctx, "poll "+id, control, http.MethodGet, host+"/api/v1/jobs/"+id, nil, decodeJSON(&st))
	if err != nil {
		return server.JobStatus{}, fmt.Errorf("polling %s on %s: %w", id, host, err)
	}
	return st, nil
}

// exportJob streams the job's canonical results and decodes every entry.
// prefix < 0 exports the finished job whole; prefix >= 0 asks for the
// first prefix entries of a (possibly still running) job — the partial
// export behind a rescue. The whole request retries under the policy: a
// truncated stream re-fetches from scratch, which canonical encoding
// makes safe.
func (c *run) exportJob(ctx context.Context, host, id string, prefix int) (flightOutput, error) {
	url := host + "/api/v1/jobs/" + id + "/export"
	if prefix >= 0 {
		url = fmt.Sprintf("%s?prefix=%d", url, prefix)
	}
	var out flightOutput
	err := c.send(ctx, "export "+id, bulk, http.MethodGet, url, nil, func(body io.Reader) error {
		out = flightOutput{}
		dec := json.NewDecoder(bufio.NewReaderSize(body, 1<<16))
		for {
			var e server.ExportEntry
			if err := dec.Decode(&e); err == io.EOF {
				break
			} else if err != nil {
				return fmt.Errorf("decoding export: %w", err)
			}
			if e.Key == "" || len(e.Result) == 0 {
				return errors.New("export holds an empty entry")
			}
			res, err := core.DecodeResult(e.Result)
			if err != nil {
				return err
			}
			out.entries = append(out.entries, e)
			out.results = append(out.results, res)
		}
		if prefix >= 0 && len(out.entries) != prefix {
			return fmt.Errorf("prefix export returned %d entries, want %d", len(out.entries), prefix)
		}
		return nil
	})
	if err != nil {
		return flightOutput{}, fmt.Errorf("exporting %s from %s: %w", id, host, err)
	}
	return out, nil
}

// bestEffort sends one control request once and ignores the answer: the
// cancel that starts an abandon (its follower confirms the outcome, so a
// retry would only eat the fixed abandon budget) and the eviction of a
// terminal job (if the DELETE is lost, the job keeps its results in the
// host's memory until the host restarts or someone evicts it: a bounded
// cost, not worth retry backoff).
func (c *run) bestEffort(ctx context.Context, method, url string) {
	rctx, cancel := context.WithTimeout(ctx, c.reqTimeout)
	defer cancel()
	req, err := c.newRequest(rctx, method, url, nil)
	if err != nil {
		return
	}
	//wclint:retry-ok best-effort single shot: abandon's follower confirms a cancel within its fixed budget, and a lost eviction only keeps a terminal job's results on the host until it restarts or the job is evicted
	if resp, err := c.client.Do(req); err == nil {
		resp.Body.Close()
	}
}

// merge verifies the pieces tile the grid exactly, concatenates them in
// span order into the final sweep, and ingests canonical payloads into
// the backend along the way.
func (c *run) merge(backend sweep.Backend) (*Result, error) {
	c.mu.Lock()
	pieces := c.pieces
	warnings := c.warnings
	hostStates := c.hosts
	c.mu.Unlock()

	sort.Slice(pieces, func(i, j int) bool { return pieces[i].lo < pieces[j].lo })
	at := 0
	for _, p := range pieces {
		if p.lo != at {
			return nil, fmt.Errorf("coord: pieces do not tile the grid: gap or overlap at config %d (next piece %s)",
				at, sweep.FormatSpan(p.lo, p.hi))
		}
		at = p.hi
	}
	if at != c.total {
		return nil, fmt.Errorf("coord: pieces cover %d of %d configurations", at, c.total)
	}

	res := &Result{}
	records := make([]sweep.Record, 0, c.total)
	for i, p := range pieces {
		for k, r := range p.results {
			if backend != nil {
				e := p.entries[k]
				if err := sweep.PutEncoded(backend, e.Key, e.Result); err != nil {
					return nil, fmt.Errorf("coord: ingesting span %s result: %w",
						sweep.FormatSpan(p.lo, p.hi), err)
				}
				res.Ingested++
			}
			records = append(records, sweep.NewRecord(r))
		}
		rep := ShardReport{
			Index: i, Lo: p.lo, Hi: p.hi, Host: p.host, JobID: p.jobID,
			Configs: p.hi - p.lo, Attempts: p.attempts,
			Stolen: p.stolen, Speculative: p.spec,
			TraceFallbacks: p.fallbacks,
		}
		for _, w := range warnings {
			if w.hi > p.lo && w.lo < p.hi {
				rep.Warnings = append(rep.Warnings, w.msg)
			}
		}
		res.Shards = append(res.Shards, rep)
	}
	res.Sweep = &sweep.Sweep{Records: records}
	for _, w := range warnings {
		res.Warnings = append(res.Warnings, w.msg)
	}
	var urls []string
	for u := range hostStates {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	for _, u := range urls {
		h := hostStates[u]
		res.Hosts = append(res.Hosts, HostReport{
			Host: u, State: h.state, Joined: h.joined,
			Pieces: h.pieces, Configs: h.configs, Flights: h.flights,
			Steals: h.steals, Speculations: h.specs,
		})
	}
	if c.progress != nil {
		c.progress(c.total, c.total)
	}
	return res, nil
}

// defaultName derives a stable run identity from the grid and shard count
// so retried coordinator invocations of the same work share job names.
func defaultName(g sweep.Grid, shards int) string {
	b, _ := json.Marshal(g)
	h := fnv.New64a()
	h.Write(b)
	fmt.Fprintf(h, "|%d", shards)
	return fmt.Sprintf("grid-%012x", h.Sum64()&0xffffffffffff)
}
