// Package server is the long-lived HTTP sweep service behind cmd/waycached:
// clients submit design-space grids (the same sweep.Grid JSON the library
// uses), the server runs them asynchronously on the sweep engine over a
// shared — optionally disk-backed — result store, and poll/query/aggregate
// endpoints serve the growing result corpus in the exact bytes the offline
// cmd/sweep CLI emits. Endpoint reference and examples: docs/HTTP_API.md.
//
// Jobs run concurrently, each on its own goroutine, under one shared
// simulation budget (sweep.Budget) sized by Options.Workers: the host
// never runs more simulations at once than the budget holds, and freed
// slots are granted round-robin across clients, so a giant grid from one
// submitter cannot starve a small job from another. Because every
// simulation flows through one memoized Store, overlapping jobs — or a
// job re-submitting configurations an earlier process already simulated,
// with a disk store — cost memo lookups, not simulations, and memo hits
// are never charged against the budget. Per-job output stays
// byte-identical to a sequential run: results are indexed by config
// position, so scheduling order never reaches the output bytes.
//
// Progress streams over GET /api/v1/jobs/{id}/events (Server-Sent
// Events); pollers use GET /api/v1/jobs/{id}. With Options.AuthTokens
// set the server requires bearer tokens and meters fair-share and rate
// limits per token name; unset, it is open and meters per remote host.
//
// A submission may carry a span spec ("lo-hi") and a client-supplied name:
// the server expands the grid, runs only the contiguous config range
// [lo, hi), and exports the span's results in canonical
// (core.EncodeResult) form — the building blocks the distributed
// coordinator (internal/coord) fans out across hosts and merges
// byte-identically. Every job owns a context: cancellation
// (POST /api/v1/jobs/{id}/cancel) reaches a terminal "cancelled" state
// promptly instead of blocking the runner behind an unwanted grid, and
// terminal jobs can be evicted (DELETE /api/v1/jobs/{id}) to release the
// memory their results pin.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"waycache/internal/core"
	"waycache/internal/sweep"
	"waycache/internal/trace"
	"waycache/internal/tracestore"
)

// QueueCap bounds live (non-terminal) jobs; submissions beyond it are
// refused with 503 rather than admitted without bound. Jobs all run
// concurrently under the shared budget, so the cap bounds bookkeeping
// and goroutines, not a waiting line.
const QueueCap = 256

// MaxGridSize bounds a single submission's expanded configuration count.
// Span submissions are bounded by their full grid too: the server expands
// the whole grid before slicing it.
const MaxGridSize = 1 << 20

// maxBodyBytes bounds a grid submission body.
const maxBodyBytes = 1 << 20

// Options configures a Server.
type Options struct {
	// Store is the shared result store (nil means a fresh in-memory one).
	// Open it over resultdb (sweep.OpenDiskStore) to serve — and extend —
	// a persistent corpus.
	Store *sweep.Store
	// Workers is the host's global simulation budget: the maximum
	// simulations running at once across ALL jobs (default:
	// runtime.GOMAXPROCS(0)). Slots are granted fair-share across
	// clients by a shared sweep.Budget.
	Workers int
	// AuthTokens maps bearer token -> client name. Empty means open
	// mode: no authentication, clients identified by remote host. Build
	// from an -auth-tokens flag with ParseAuthTokens.
	AuthTokens map[string]string
	// RatePerSec, when positive, rate-limits each client's requests with
	// a token bucket (burst RateBurst, default 16). Applies to every
	// endpoint except /healthz, in both auth modes.
	RatePerSec float64
	RateBurst  int
	// TraceStore, when non-nil, serves and accepts content-addressed
	// traces over /api/v1/traces/{hash} and resolves the trace://<hash>
	// references jobs carry in Grid.TraceRefs. Without it, trace uploads
	// are refused and referencing jobs fall back per benchmark (see
	// sweep.Options.TraceStore).
	TraceStore *tracestore.Store
}

// Server implements the HTTP API. Create with New, serve with net/http,
// stop with Close.
type Server struct {
	opts    Options
	store   *sweep.Store
	mux     *http.ServeMux
	budget  *sweep.Budget // shared simulation budget across all jobs
	limiter *rateLimiter  // nil when RatePerSec == 0

	// eventHeartbeat is the idle keep-alive interval for event streams.
	eventHeartbeat time.Duration

	// tokens holds the live bearer-token map (token -> client name),
	// swapped atomically by SetAuthTokens so operators can rotate
	// credentials without a restart. Seeded from Options.AuthTokens; the
	// auth mode (open vs token) is fixed at construction — rotation
	// replaces tokens, it never opens or closes the server.
	tokens atomic.Pointer[map[string]string]

	ctx    context.Context // parent of every job context; cancelled on Close
	cancel context.CancelFunc
	stopWG sync.WaitGroup // one count per live job goroutine

	mu     sync.Mutex //wclint:lockrank 10
	jobs   map[string]*job
	order  []string
	nextID int
}

// New creates a server with its shared simulation budget.
func New(opts Options) *Server {
	if opts.Store == nil {
		opts.Store = sweep.NewStore()
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:   opts,
		store:  opts.Store,
		mux:    http.NewServeMux(),
		budget: sweep.NewBudget(opts.Workers),
		ctx:    ctx,
		cancel: cancel,
		jobs:   make(map[string]*job),

		eventHeartbeat: 15 * time.Second,
	}
	s.tokens.Store(&opts.AuthTokens)
	if opts.RatePerSec > 0 {
		s.limiter = newRateLimiter(opts.RatePerSec, opts.RateBurst)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /api/v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("POST /api/v1/jobs/{id}/cancel", s.handleJobCancel)
	s.mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleJobDelete)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/results", s.handleJobResults)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/export", s.handleJobExport)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /api/v1/traces", s.handleTraceList)
	s.mux.HandleFunc("GET /api/v1/traces/{hash}", s.handleTraceGet)
	s.mux.HandleFunc("PUT /api/v1/traces/{hash}", s.handleTracePut)
	s.mux.HandleFunc("GET /api/v1/results", s.handleResults)
	s.mux.HandleFunc("GET /api/v1/aggregate", s.handleAggregate)
	s.mux.HandleFunc("GET /api/v1/stats", s.handleStats)

	// Live profiling of the serving process (go tool pprof against
	// /debug/pprof/profile, /heap, /goroutine, ...). Registered on the
	// service mux, not http.DefaultServeMux, so the routes sit behind the
	// same bearer-auth and rate-limit wrapper as the API: with
	// -auth-tokens set, profiles require a valid token.
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)

	return s
}

// ServeHTTP implements http.Handler: authentication and rate limiting
// wrap every route except the /healthz liveness probe.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" {
		s.mux.ServeHTTP(w, r)
		return
	}
	id, ok := s.authenticate(r)
	if !ok {
		w.Header().Set("WWW-Authenticate", `Bearer realm="waycached"`)
		writeError(w, http.StatusUnauthorized, errors.New("missing or unknown bearer token"))
		return
	}
	if s.limiter != nil {
		if ok, retry := s.limiter.allow(id, time.Now()); !ok {
			w.Header().Set("Retry-After", strconv.Itoa(int(retry/time.Second)+1))
			writeError(w, http.StatusTooManyRequests,
				fmt.Errorf("client %q exceeded %g requests/sec; retry later", id, s.opts.RatePerSec))
			return
		}
	}
	s.mux.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), identityKey, id)))
}

// Close cancels every live job (each reaches the terminal "cancelled"
// state) and waits for their goroutines. In-store results are unaffected.
func (s *Server) Close() {
	s.cancel()
	s.stopWG.Wait()
}

// runJob executes one job on its own goroutine. Concurrency across jobs
// is governed by the shared budget, not by job count: every actual
// simulation acquires a slot under the submitting client's identity, so
// admission is fair-share per client no matter how many jobs each one
// has in flight.
func (s *Server) runJob(j *job) {
	cfgs := j.grid.Configs()
	if j.spanHi > 0 {
		cfgs = cfgs[j.spanLo:j.spanHi]
	}
	// A job cancelled before this goroutine got scheduled is already
	// terminal: skip it without simulating.
	if !j.setRunning(cfgs) {
		return
	}
	// A fresh engine per job gives it a private progress feed and trace
	// fallback report; the shared store still deduplicates simulations
	// across jobs and processes, and the shared budget meters the ones
	// that actually run.
	eng := sweep.New(sweep.Options{
		Workers:    s.opts.Workers,
		Store:      s.store,
		TraceStore: s.opts.TraceStore,
		Progress:   j.setProgress,
		OnResult:   j.noteResult,
		Budget:     s.budget,
		Owner:      j.owner,
	})
	_, err := eng.RunConfigs(j.ctx, cfgs)
	j.finish(eng.TraceFallbacks(), err)
}

// job is one submitted grid (or grid span) and its lifecycle.
type job struct {
	id    string
	name  string // optional client-supplied identity
	owner string // authenticated submitter: the fair-share budget identity
	grid  sweep.Grid
	// spanHi > 0 selects cfgs[spanLo:spanHi] of the expanded grid: an
	// initial coordinator piece (sweep.SpanOf) or a remainder stolen from
	// a straggler, which is an arbitrary contiguous range.
	spanLo, spanHi int
	total          int

	// ctx governs the job's simulations; cancel is safe to call from any
	// state and releases the context once the job is terminal.
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex //wclint:lockrank 20
	state     string     // "queued" -> "running" -> "done" | "failed" | "cancelled"
	cancelled bool       // cancellation requested while running
	done      int
	err       string
	fallbacks map[string]string
	changed   chan struct{} // closed and replaced on every status change

	// From setRunning on, cfgs is the job's config slice, results holds
	// each finished result at its config position, and wm is the
	// watermark — the longest finished prefix. Every view of the job (its
	// /results records, full and ?prefix=N exports) is built from these
	// when a request arrives. The watermark is what lets a coordinator
	// steal a straggler's un-exported remainder: everything before wm is
	// exportable now (GET export?prefix=w), everything from wm on is
	// re-submittable elsewhere. A failed or cancelled job releases cfgs
	// and results.
	cfgs    []core.Config
	results []*core.Result
	wm      int
}

// notifyLocked wakes every event stream watching the job. Call with
// j.mu held, after any change a watcher should see.
func (j *job) notifyLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// statusWatch snapshots the status together with the channel that closes
// on the next change, so a watcher that sends the snapshot and then
// waits on the channel cannot miss an update in between.
func (j *job) statusWatch() (JobStatus, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked(), j.changed
}

// JobStatus is the wire form of a job's state, also returned by the
// submission endpoint.
type JobStatus struct {
	ID    string `json:"id"`
	Name  string `json:"name,omitempty"`
	State string `json:"state"`
	// Span is "lo-hi" when the job runs the contiguous config range
	// [lo, hi) of its expanded grid rather than the whole expansion.
	Span  string `json:"span,omitempty"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
	// Watermark is the longest finished prefix of a job's configs: for a
	// named or span job, everything before it is servable by GET
	// export?prefix=w right now, even while the job is still running. It
	// reaches Total when the job is done.
	Watermark int    `json:"watermark,omitempty"`
	Error     string `json:"error,omitempty"`
	// TraceFallbacks maps each benchmark whose trace:// reference the
	// job could not use (so that it ran the suite benchmark's own stream)
	// to the reason. Empty when every reference resolved or the job
	// carries none.
	TraceFallbacks map[string]string `json:"traceFallbacks,omitempty"`
}

// Terminal reports whether the job has reached a final state ("done",
// "failed" or "cancelled"), which never changes again.
func (st JobStatus) Terminal() bool {
	return st.State == "done" || st.State == "failed" || st.State == "cancelled"
}

// setRunning moves a queued job to running over cfgs; it reports false
// when the job was cancelled while queued and must not run.
func (j *job) setRunning(cfgs []core.Config) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != "queued" {
		return false
	}
	j.state = "running"
	j.cfgs, j.results = cfgs, make([]*core.Result, len(cfgs))
	j.notifyLocked()
	return true
}

func (j *job) setProgress(done, total int) {
	j.mu.Lock()
	j.done = done
	j.notifyLocked()
	j.mu.Unlock()
}

// noteResult records one finished config (engine OnResult) and advances
// the watermark over the contiguous finished prefix. Watermark changes
// reach event-stream watchers through the progress notification that
// follows every completion, so no extra wakeup is needed here.
func (j *job) noteResult(i int, res *core.Result) {
	j.mu.Lock()
	j.results[i] = res
	for j.wm < len(j.results) && j.results[j.wm] != nil {
		j.wm++
	}
	j.mu.Unlock()
}

// requestCancel asks the job to stop. Queued jobs become terminal
// immediately; running jobs have their context cancelled and become
// terminal when the engine unwinds. ok is false when the job is already
// terminal.
func (j *job) requestCancel() (JobStatus, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case "queued":
		j.state = "cancelled"
		j.cancel()
		j.notifyLocked()
		return j.statusLocked(), true
	case "running":
		j.cancelled = true
		j.cancel()
		j.notifyLocked()
		return j.statusLocked(), true
	default:
		return j.statusLocked(), false
	}
}

func (j *job) finish(fallbacks map[string]string, err error) {
	j.mu.Lock()
	j.fallbacks = fallbacks
	switch {
	case err == nil:
		j.state = "done"
	case j.cancelled || errors.Is(err, context.Canceled):
		// Cancellation (client cancel or server Close) is its own terminal
		// state, not a failure; the state says everything Error would.
		j.state = "cancelled"
	default:
		j.state, j.err = "failed", err.Error()
	}
	if err != nil {
		// Only a done job serves its results. The watermark of a failed or
		// cancelled job freezes at whatever prefix had finished (a stealing
		// coordinator exports that prefix *before* cancelling, so the
		// frozen value is only informational).
		j.cfgs, j.results = nil, nil
	}
	j.notifyLocked()
	j.mu.Unlock()
	j.cancel() // release the context; terminal states never simulate again
}

// exportEntry flattens one finished result into its canonical export
// entry, keyed AND encoded under the submitted config — before any trace
// resolution. Replay and walker runs produce identical statistics (the
// repo's core determinism contract), so substituting the submitted config
// makes the payload portable: no host-local trace path leaks into the
// importing corpus, the payload's embedded Config matches the key it is
// stored under, and a trace-enabled host exports the same bytes a
// walker-only host would.
func exportEntry(cfg core.Config, res *core.Result) (ExportEntry, bool) {
	key, ok := cfg.Key()
	if !ok {
		return ExportEntry{}, false // unreachable: JSON submissions cannot carry a Source
	}
	rr := *res
	rr.Config = cfg
	payload, err := core.EncodeResult(&rr)
	if err != nil {
		return ExportEntry{}, false // unreachable for the same reason
	}
	return ExportEntry{Key: key, Result: payload}, true
}

// terminal reports whether the job has reached a final state.
func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{State: j.state}.Terminal()
}

// doomed reports whether the job is terminal or has cancellation pending:
// either way it will never produce results, so it must not satisfy an
// idempotent named re-submission.
func (j *job) doomed() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelled || JobStatus{State: j.state}.Terminal()
}

func (j *job) statusLocked() JobStatus {
	st := JobStatus{
		ID: j.id, Name: j.name, State: j.state,
		Done: j.done, Total: j.total, Watermark: j.wm, Error: j.err,
		TraceFallbacks: j.fallbacks,
	}
	if j.spanHi > 0 {
		st.Span = sweep.FormatSpan(j.spanLo, j.spanHi)
	}
	return st
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

// prefix returns the job's first n configs and results (all of them when
// n < 0) with its status, or ok false when they are not servable. A done
// job serves any n up to its total; a running job serves any n up to its
// watermark — the partial-progress export a coordinator uses to steal a
// straggler's finished prefix before re-submitting the remainder
// elsewhere. Watermarks only grow, so an n read from a status snapshot can
// never race past the servable prefix, and everything before the
// watermark is set-once and immutable, so callers encode the returned
// slices without holding the lock.
func (j *job) prefix(n int) ([]core.Config, []*core.Result, JobStatus, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.statusLocked()
	if n < 0 && j.state == "done" {
		n = len(j.results)
	}
	if n < 0 || n > j.wm || (j.state != "done" && j.state != "running") {
		return nil, nil, st, false
	}
	return j.cfgs[:n], j.results[:n], st, true
}

// --- handlers ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// JobRequest is the submission body: a sweep.Grid, optionally narrowed to
// one contiguous span and tagged with a client-supplied name. It is
// the one wire type both this server and the distributed coordinator
// (internal/coord) marshal, so the two cannot drift.
type JobRequest struct {
	sweep.Grid
	// Name is an optional client identity (e.g. "<run>-u0-4").
	// Submitting a name that matches a live (non-terminal) job running
	// the same grid and span returns that job's status instead of
	// enqueueing a duplicate, so a client that lost a submission response
	// can re-submit idempotently; the same name with different work is
	// refused (409) rather than silently answered with someone else's
	// sweep.
	Name string `json:"name"`
	// Span is "lo-hi": run only the contiguous config range [lo, hi) of
	// the expanded grid. This is the work unit the elastic coordinator
	// submits — an initial piece is sweep.SpanOf of the grid, and a
	// remainder stolen from a straggler is whatever range was left.
	// Spans of sweep.SpanOf(total, i, n) for i = 0..n-1 concatenate to
	// the full grid.
	Span string `json:"span"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad grid: %w", err))
		return
	}
	// Normalize at submission (an unknown benchmark or malformed trace
	// reference should 400 here, not fail the job minutes later); an
	// omitted benchmark list means the full suite, mirroring the CLI's
	// -benchmarks default, and every front end normalizes identically —
	// which is what makes the named-job idempotency DeepEqual below
	// compare like with like.
	g, err := req.Grid.Normalize()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	total := g.Size()
	if total > MaxGridSize {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("grid expands to %d configurations (limit %d, for span submissions too); split the grid", total, MaxGridSize))
		return
	}
	var spanLo, spanHi int
	if req.Span != "" {
		if spanLo, spanHi, err = sweep.ParseSpan(req.Span); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if spanHi > total {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("span %s exceeds the grid's %d configurations", req.Span, total))
			return
		}
		total = spanHi - spanLo
	}

	s.mu.Lock()
	// Idempotent named submission: a live job with the same name AND the
	// same work gets its status handed back instead of a duplicate in
	// the queue. A name collision over different work is refused — it
	// would otherwise silently answer this client with someone else's
	// sweep.
	if req.Name != "" {
		for _, id := range s.order {
			jj := s.jobs[id]
			// A cancel-pending job is as dead as a terminal one for
			// idempotency purposes: handing it back would chain the new
			// client to doomed work.
			if jj.name != req.Name || jj.doomed() {
				continue
			}
			if !reflect.DeepEqual(jj.grid, g) || jj.spanLo != spanLo || jj.spanHi != spanHi {
				st := jj.status()
				s.mu.Unlock()
				writeError(w, http.StatusConflict,
					fmt.Errorf("job name %q is live as %s with a different grid or span", req.Name, st.ID))
				return
			}
			s.mu.Unlock()
			writeJSON(w, http.StatusAccepted, jj.status())
			return
		}
	}
	// Bound live jobs: each costs a goroutine and retained bookkeeping.
	live := 0
	for _, id := range s.order {
		if !s.jobs[id].terminal() {
			live++
		}
	}
	if live >= QueueCap {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("%d jobs live (limit %d); retry later", live, QueueCap))
		return
	}
	s.nextID++
	jctx, jcancel := context.WithCancel(s.ctx)
	j := &job{
		id: fmt.Sprintf("job-%d", s.nextID), name: req.Name,
		owner: clientID(r),
		grid:  g, spanLo: spanLo, spanHi: spanHi,
		total: total, state: "queued",
		ctx: jctx, cancel: jcancel,
		changed: make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.stopWG.Add(1)
	// Take the reply before runJob starts: the 202 announces the job as
	// queued, and a fast runner could otherwise already report it running.
	st := j.status()
	s.mu.Unlock()
	go func() {
		defer s.stopWG.Done()
		s.runJob(j)
	}()
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	statuses := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		statuses = append(statuses, s.jobs[id].status())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, statuses)
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
	}
	return j
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.job(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status())
	}
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	st, ok := j.requestCancel()
	if !ok {
		// Already terminal: cancelling finished work is a conflict, and
		// the status body says which terminal state won the race.
		writeJSON(w, http.StatusConflict, st)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		return
	}
	if !j.terminal() {
		st := j.status()
		s.mu.Unlock()
		writeJSON(w, http.StatusConflict, st)
		return
	}
	delete(s.jobs, id)
	for i, oid := range s.order {
		if oid == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	// The store keeps every simulated result; eviction only drops the
	// job's bookkeeping (status, retained results).
	writeJSON(w, http.StatusOK, map[string]string{"evicted": id})
}

func (s *Server) handleJobResults(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	_, results, st, ok := j.prefix(-1)
	if !ok {
		// Not an error JSON: the status body tells a poller exactly where
		// the job stands (including a failure's message).
		writeJSON(w, http.StatusConflict, st)
		return
	}
	writeSweep(w, r, sweep.NewSweep(results))
}

// ExportEntry is one line of a job export stream: the canonical memo key
// of a submitted configuration (core.Config.Key of the config as
// submitted, before any trace resolution) and the result in
// core.EncodeResult's canonical byte form. The distributed coordinator
// ingests these lines into a local result store byte-for-byte.
type ExportEntry struct {
	Key    string          `json:"key"`
	Result json.RawMessage `json:"result"`
}

func (s *Server) handleJobExport(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	if j.name == "" && j.spanHi == 0 {
		// Exporting is the coordinator workflow, which always names its
		// jobs; an anonymous whole-grid job answers /results instead.
		writeError(w, http.StatusConflict,
			fmt.Errorf("job %s was submitted without a name or span and has no export; use /results", j.id))
		return
	}
	n := -1
	if p := r.URL.Query().Get("prefix"); p != "" {
		// ?prefix=N serves the first N canonical entries. Against a running
		// job this is the partial-progress export the elastic coordinator
		// uses to bank a straggler's finished prefix before stealing the
		// remainder; N must not exceed the job's watermark.
		var err error
		if n, err = strconv.Atoi(p); err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad prefix %q: want a non-negative integer", p))
			return
		}
	}
	cfgs, results, st, ok := j.prefix(n)
	if !ok {
		writeJSON(w, http.StatusConflict, st)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for i, res := range results {
		e, ok := exportEntry(cfgs[i], res)
		if !ok {
			continue
		}
		if err := enc.Encode(e); err != nil {
			return
		}
	}
}

// --- trace distribution ---
//
// The /api/v1/traces endpoints make every waycached host a node of the
// content-addressed trace store: the coordinator (internal/coord) pushes
// each referenced trace to the hosts that lack it before submitting
// span jobs, so a trace://<hash> sweep needs no pre-provisioned trace
// directories anywhere. Objects are immutable and self-verifying — the
// URL names the SHA-256 of the exact bytes — so PUT is idempotent and
// replication can never serve the wrong trace.

// maxTraceBytes bounds one uploaded trace object.
const maxTraceBytes = 1 << 32

func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	if s.opts.TraceStore == nil {
		writeError(w, http.StatusConflict, errNoTraceStore)
		return
	}
	hashes, err := s.opts.TraceStore.Hashes()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if hashes == nil {
		hashes = []string{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"traces": hashes})
}

// handleTraceGet streams a stored trace object; its GET route also
// answers HEAD, which is how the coordinator probes hosts for a hash
// without transferring bytes.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if s.opts.TraceStore == nil {
		writeError(w, http.StatusConflict, errNoTraceStore)
		return
	}
	if !trace.ValidHash(hash) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad trace hash %q (want 64 lowercase hex digits)", hash))
		return
	}
	f, size, err := s.opts.TraceStore.Open(hash)
	if err != nil {
		if errors.Is(err, tracestore.ErrNotFound) {
			writeError(w, http.StatusNotFound, fmt.Errorf("trace %s not in the store", trace.ShortHash(hash)))
		} else {
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	if r.Method != http.MethodHead {
		io.Copy(w, f)
	}
}

// handleTracePut ingests a trace object under its declared hash. The
// store hashes the body as it lands and refuses a mismatch, so a
// corrupted transfer (or a lying client) cannot poison the store; a
// hash already present reads and discards the body but stores nothing,
// making replication pushes idempotent.
func (s *Server) handleTracePut(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if s.opts.TraceStore == nil {
		writeError(w, http.StatusConflict, errNoTraceStore)
		return
	}
	if !trace.ValidHash(hash) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad trace hash %q (want 64 lowercase hex digits)", hash))
		return
	}
	created, n, err := s.opts.TraceStore.PutExpected(http.MaxBytesReader(w, r.Body, maxTraceBytes), hash)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	writeJSON(w, code, map[string]any{"hash": hash, "bytes": n, "created": created})
}

var errNoTraceStore = errors.New("this host has no trace store (start waycached with -tracestore)")

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	recs, err := s.queryRecords(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeSweep(w, r, &sweep.Sweep{Records: recs})
}

func (s *Server) handleAggregate(w http.ResponseWriter, r *http.Request) {
	recs, err := s.queryRecords(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	q := r.URL.Query()
	dim := q.Get("by")
	if dim == "" {
		dim = "benchmark"
	}
	metric := q.Get("metric")
	if metric == "" {
		metric = "procED"
	}
	stats, err := sweep.Aggregate(recs, dim, metric)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	switch format(r) {
	case "csv":
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		if err := sweep.WriteGroupStatsCSV(w, dim, stats); err != nil {
			return // headers sent; nothing safe to add
		}
	case "json":
		w.Header().Set("Content-Type", "application/json")
		sweep.WriteGroupStatsJSON(w, stats)
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown format %q (want json or csv)", format(r)))
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	type jobCounts struct {
		Queued    int `json:"queued"`
		Running   int `json:"running"`
		Done      int `json:"done"`
		Failed    int `json:"failed"`
		Cancelled int `json:"cancelled"`
	}
	var jc jobCounts
	s.mu.Lock()
	for _, id := range s.order {
		switch s.jobs[id].status().State {
		case "queued":
			jc.Queued++
		case "running":
			jc.Running++
		case "done":
			jc.Done++
		case "failed":
			jc.Failed++
		case "cancelled":
			jc.Cancelled++
		}
	}
	s.mu.Unlock()

	records, rescans := s.store.CorpusStats()
	arena := trace.SharedArena() // the decoded captures trace replay serves from
	resp := map[string]any{
		"store": map[string]any{
			"hits":    s.store.Hits(),
			"misses":  s.store.Misses(),
			"entries": s.store.Len(),
		},
		"corpus": map[string]any{
			"records": records,
			"rescans": rescans,
		},
		"jobs": jc,
		"scheduler": map[string]any{
			"budget":  s.opts.Workers,
			"waiting": s.budget.Waiting(),
		},
		"arena": map[string]any{
			"files":         arena.Len(),
			"insts":         arena.Resident(),
			"residentBytes": arena.ResidentBytes(),
		},
	}
	if err := s.store.BackendErr(); err != nil {
		resp["storeError"] = err.Error()
	}
	writeJSON(w, http.StatusOK, resp)
}

// queryRecords returns the request's filtered view of the corpus, in
// canonical order.
func (s *Server) queryRecords(r *http.Request) ([]sweep.Record, error) {
	f, err := sweep.ParseFilter(r.URL.Query())
	if err != nil {
		return nil, err
	}
	corpus, err := s.store.Records()
	if err != nil {
		return nil, err
	}
	return f.Apply(corpus), nil
}

// --- small helpers ---

// writeSweep emits records in the exact bytes cmd/sweep writes for the
// same records: the Sweep writers are the single source of output format.
func writeSweep(w http.ResponseWriter, r *http.Request, sw *sweep.Sweep) {
	switch format(r) {
	case "csv":
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		sw.WriteCSV(w)
	case "json":
		w.Header().Set("Content-Type", "application/json")
		sw.WriteJSON(w)
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown format %q (want json or csv)", format(r)))
	}
}

func format(r *http.Request) string {
	if f := r.URL.Query().Get("format"); f != "" {
		return f
	}
	return "json"
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
