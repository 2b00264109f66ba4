package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"waycache/internal/core"
	"waycache/internal/prng"
	"waycache/internal/resultdb"
	"waycache/internal/server"
	"waycache/internal/sweep"
	"waycache/internal/workload"
)

// service-mixed drives the waycached server on loopback over a pre-built
// result store with a closed loop of two clients. Every configuration is
// short; the server's budget is two simulation slots.
const (
	serviceInsts     = 20_000
	serviceInstsStep = 8 // instruction-count step between families: distinct keys, equal work
	serviceFamilies  = 4 // instruction counts the corpus spans
	serviceClients   = 2
	serviceBudget    = 2
	serviceSetupReps = 9
	// serviceMinOps operations always complete; serviceTail is the highest
	// percentile with ten of them beyond it.
	serviceMinOps = 600
	// serviceOps is the schedule's length, longer than a run reaches; a run
	// that uses it all stops early and says so. The pre-built store holds
	// every shape the schedule opens, so this also sets the corpus size
	// each rescan decodes, the same whichever prefix a run reaches.
	serviceOps = 4500
	// serviceProbeOps is the length of the schedule the sweeps' traced
	// runs time the server layer on.
	serviceProbeOps = 300
)

var serviceTail = tailTenths(serviceMinOps)

// serviceBlock is one block of the schedule. Every block holds the same
// operations at the same positions — 6 corpus queries, 2 jobs opening a
// shape with one new configuration, 1 job opening a shape that is all
// stored and 21 jobs repeating an opened shape — and the seed picks what
// each one asks for. Each run's mix is then the same whichever prefix of
// the schedule it reaches, and each new configuration's write lands a
// few operations before a query, which must rescan the corpus.
var serviceBlock = []string{
	opNew, opRepeat, opRepeat, opQuery, opRepeat, opRepeat, opFresh, opRepeat, opQuery, opRepeat,
	opRepeat, opRepeat, opQuery, opRepeat, opRepeat, opNew, opRepeat, opRepeat, opQuery, opRepeat,
	opRepeat, opRepeat, opQuery, opRepeat, opRepeat, opRepeat, opQuery, opRepeat, opRepeat, opRepeat,
}

const (
	opQuery  = "query"
	opNew    = "new"
	opFresh  = "fresh"
	opRepeat = "repeat"
)

// jobSpan is the number of configurations one span job runs: half of a
// family's eight policies.
const jobSpan = 4

// svcShape is one span job's work: half of the eight d-cache policies of
// one (benchmark, ways, latency, instructions) family.
type svcShape struct {
	Bench string `json:"bench"`
	Ways  int    `json:"ways"`
	Lat   int    `json:"lat"`
	Insts int64  `json:"insts"`
	Half  int    `json:"half"`
}

func (s svcShape) configs() []core.Config {
	pols := sweep.AllDPolicies()[s.Half*jobSpan : (s.Half+1)*jobSpan]
	cfgs := make([]core.Config, len(pols))
	for i, p := range pols {
		cfgs[i] = core.Config{Benchmark: s.Bench, DPolicy: p, DWays: s.Ways, DLatency: s.Lat, Insts: s.Insts}
	}
	return cfgs
}

func (s svcShape) request() server.JobRequest {
	lo := s.Half * jobSpan
	return server.JobRequest{
		Grid: sweep.Grid{
			Benchmarks: []string{s.Bench}, DPolicies: sweep.AllDPolicies(),
			DWays: []int{s.Ways}, DLatencies: []int{s.Lat}, Insts: s.Insts,
		},
		Span: sweep.FormatSpan(lo, lo+jobSpan),
	}
}

// svcOp is one scheduled client operation.
type svcOp struct {
	Kind  string `json:"kind"`            // opQuery or a job kind
	Shape int    `json:"shape"`           // jobs: index into the plan's shapes
	New   int    `json:"new"`             // opNew: position of the new configuration
	Query string `json:"query,omitempty"` // queries: "results" or "aggregate"
	Bench string `json:"bench,omitempty"` // queries: the filter
	Ways  int    `json:"ways,omitempty"`
	Lat   int    `json:"lat,omitempty"`
}

// svcPlan is the generated input of a service-mixed run: the shapes jobs
// use and the operation schedule. Every configuration of an opened shape
// is in the pre-built store except the one an opNew job simulates.
type svcPlan struct {
	Shapes []svcShape `json:"shapes"`
	Ops    []svcOp    `json:"ops"`
}

const planFile = "plan.json"

// newServicePlan generates the schedule of seed, up to ops operations long.
func newServicePlan(seed uint64, ops int) *svcPlan {
	rng := prng.FromSeed(seed, "service")
	var universe []svcShape
	for k := 0; k < serviceFamilies; k++ {
		for _, b := range workload.Names() {
			for _, w := range sweepWays {
				for _, l := range sweepLats {
					for h := 0; h < 8/jobSpan; h++ {
						universe = append(universe, svcShape{b, w, l, serviceInsts + int64(k)*serviceInstsStep, h})
					}
				}
			}
		}
	}
	perm := make([]int, len(universe))
	rng.Perm(perm)
	p := &svcPlan{}
	open := func() int {
		p.Shapes = append(p.Shapes, universe[perm[len(p.Shapes)]])
		return len(p.Shapes) - 1
	}
	for len(p.Ops) < ops && len(p.Shapes)+len(serviceBlock) <= len(universe) {
		for _, kind := range serviceBlock {
			op := svcOp{Kind: kind, New: -1}
			switch op.Kind {
			case opQuery:
				op.Query = "results"
				if rng.Bool(0.5) {
					op.Query = "aggregate"
				}
				op.Bench = workload.Names()[rng.Intn(len(workload.Names()))]
				op.Ways = sweepWays[rng.Intn(len(sweepWays))]
				op.Lat = sweepLats[rng.Intn(len(sweepLats))]
			case opNew:
				op.Shape, op.New = open(), rng.Intn(jobSpan)
			case opFresh:
				op.Shape = open()
			case opRepeat:
				if len(p.Shapes) == 0 {
					op.Kind, op.Shape = opFresh, open()
				} else {
					op.Shape = rng.Intn(len(p.Shapes))
				}
			}
			p.Ops = append(p.Ops, op)
		}
	}
	return p
}

// newCells returns the keys of the configurations opNew jobs simulate:
// the ones the pre-built store leaves out.
func (p *svcPlan) newCells() map[string]int {
	out := make(map[string]int)
	for i, op := range p.Ops {
		if op.Kind == opNew {
			key, _ := p.Shapes[op.Shape].configs()[op.New].Key()
			out[key] = i
		}
	}
	return out
}

// storedConfigs lists the pre-built store's contents.
func (p *svcPlan) storedConfigs() []core.Config {
	fresh := p.newCells()
	var cfgs []core.Config
	for _, s := range p.Shapes {
		for _, c := range s.configs() {
			if key, _ := c.Key(); !isNew(fresh, key) {
				cfgs = append(cfgs, c)
			}
		}
	}
	return cfgs
}

func isNew(fresh map[string]int, key string) bool {
	_, ok := fresh[key]
	return ok
}

// prepService writes the schedule and builds the pristine store.
func prepService(dir string, seed uint64) error {
	p := newServicePlan(seed, serviceOps)
	b, err := json.Marshal(p)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, planFile), b, 0o644); err != nil {
		return err
	}
	return buildStore(filepath.Join(dir, "pristine"), p)
}

// buildStore simulates the plan's stored configurations into a new
// resultdb store in dir.
func buildStore(dir string, p *svcPlan) error {
	st, db, err := sweep.OpenDiskStore(dir)
	if err != nil {
		return err
	}
	_, err = sweep.New(sweep.Options{Workers: serviceBudget, Store: st}).RunConfigs(context.Background(), p.storedConfigs())
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	return err
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// svcServer is one running waycached instance over a copy of the store.
type svcServer struct {
	db    *resultdb.DB
	hook  *hookBackend
	store *sweep.Store
	srv   *server.Server
	hs    *http.Server
	base  string
	done  chan error
}

var serviceTokens = map[string]string{"token-a": "client-a", "token-b": "client-b"}

// startServer opens the store in dir, starts the server on a loopback
// port and makes the first corpus query, which fills the corpus cache.
func startServer(dir string, tr *tracer, owner func(string) (int, int)) (*svcServer, error) {
	db, err := resultdb.Open(dir)
	if err != nil {
		return nil, err
	}
	s := &svcServer{db: db, done: make(chan error, 1)}
	s.hook = newHook(db, "resultdb", tr, owner)
	s.store = sweep.NewStoreOn(sweep.Tiered{Front: sweep.NewMemory(), Back: s.hook})
	s.srv = server.New(server.Options{Store: s.store, Workers: serviceBudget, AuthTokens: serviceTokens})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		db.Close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv}
	go func() { s.done <- s.hs.Serve(ln) }()
	c := newClient(0, s.base)
	defer c.close()
	resp, err := c.get("/api/v1/results?benchmark=" + workload.Names()[0])
	if err == nil {
		err = drainOK(resp)
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop shuts the server down and closes the store, waiting for both.
func (s *svcServer) stop() error {
	err := s.hs.Shutdown(context.Background())
	if serr := <-s.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.srv.Close()
	if cerr := s.db.Close(); err == nil {
		err = cerr
	}
	return err
}

// svcClient is one closed-loop client with its own single connection.
type svcClient struct {
	id    int
	token string
	hc    *http.Client
	base  string
}

func newClient(id int, base string) *svcClient {
	tokens := []string{"token-a", "token-b"}
	return &svcClient{
		id: id, token: tokens[id%len(tokens)], base: base,
		hc: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
	}
}

func (c *svcClient) close() { c.hc.CloseIdleConnections() }

func (c *svcClient) do(method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+c.token)
	return c.hc.Do(req)
}

func (c *svcClient) get(path string) (*http.Response, error) { return c.do("GET", path, nil) }

// drainOK reads and closes a response body, failing on a non-2xx status.
func drainOK(resp *http.Response) error {
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(b)))
	}
	return nil
}

// readOK reads a 2xx response body.
func readOK(resp *http.Response) ([]byte, error) {
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(b)))
	}
	return b, nil
}

// opRecord is what one operation did and how long its parts took.
type opRecord struct {
	idx        int
	op         svcOp
	start, end time.Time
	err        error

	cfgs []core.Config
	// digests fingerprints each exported payload for the post-run checks;
	// payloads keeps the bytes of new configurations only, so the harness's
	// memory does not grow with the operations a run completes.
	digests  []digest
	payloads [][]byte
	submit   time.Duration
	queue    time.Duration
	export   time.Duration

	query time.Duration
}

// corpus tracks, for the query checks, how many records each filter must
// return: the pre-built store's, plus new configurations known stored by
// the time the query is sent, up to those whose jobs had started by the
// time it answered.
type corpus struct {
	mu       sync.Mutex
	pristine map[string]int
	started  map[string]int
	done     map[string]int
	state    map[string]int // new configuration key -> 1 started, 2 done
	fresh    map[string]int
}

func filterKeys(c core.Config) []string {
	return []string{
		fmt.Sprintf("results|%s|%d|%d", c.Benchmark, c.DWays, c.DLatency),
		"aggregate|" + c.Benchmark,
	}
}

func (op svcOp) filterKey() string {
	if op.Query == "results" {
		return fmt.Sprintf("results|%s|%d|%d", op.Bench, op.Ways, op.Lat)
	}
	return "aggregate|" + op.Bench
}

func newCorpus(p *svcPlan) *corpus {
	c := &corpus{pristine: map[string]int{}, started: map[string]int{}, done: map[string]int{},
		state: map[string]int{}, fresh: p.newCells()}
	for _, cfg := range p.storedConfigs() {
		for _, f := range filterKeys(cfg) {
			c.pristine[f]++
		}
	}
	return c
}

// advance moves the new configurations among cfgs to state st (1 when a
// job holding them is submitted, 2 when one has finished).
func (c *corpus) advance(cfgs []core.Config, st int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cfg := range cfgs {
		key, _ := cfg.Key()
		if !isNew(c.fresh, key) || c.state[key] >= st {
			continue
		}
		for s := c.state[key] + 1; s <= st; s++ {
			for _, f := range filterKeys(cfg) {
				if s == 1 {
					c.started[f]++
				} else {
					c.done[f]++
				}
			}
		}
		c.state[key] = st
	}
}

func (c *corpus) bounds(f string) (lo, hi int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pristine[f] + c.done[f], c.pristine[f] + c.started[f]
}

// serviceBench is one service-mixed run.
type serviceBench struct {
	o      opts
	plan   *svcPlan
	tr     *tracer
	corpus *corpus

	ownerMu sync.Mutex
	owners  map[string][2]int // config key -> (root span, op)
}

func (b *serviceBench) owner(key string) (int, int) {
	b.ownerMu.Lock()
	defer b.ownerMu.Unlock()
	if o, ok := b.owners[key]; ok {
		return o[0], o[1]
	}
	return -1, -1
}

func (b *serviceBench) own(cfgs []core.Config, root, op int) {
	if b.tr == nil {
		return
	}
	b.ownerMu.Lock()
	defer b.ownerMu.Unlock()
	for _, c := range cfgs {
		key, _ := c.Key()
		b.owners[key] = [2]int{root, op}
	}
}

// runJob submits one span job, follows it over SSE to its terminal state,
// exports its canonical results and evicts it.
func (b *serviceBench) runJob(c *svcClient, rec *opRecord, root int) error {
	shape := b.plan.Shapes[rec.op.Shape]
	rec.cfgs = shape.configs()
	b.own(rec.cfgs, root, rec.idx)
	body, err := json.Marshal(shape.request())
	if err != nil {
		return err
	}
	b.corpus.advance(rec.cfgs, 1)
	t0 := time.Now()
	resp, err := c.do("POST", "/api/v1/jobs", body)
	if err != nil {
		return err
	}
	raw, err := readOK(resp)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	t1 := time.Now()
	rec.submit = t1.Sub(t0)
	b.tr.add("server.submit", t0, t1, root, rec.idx)
	var st server.JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return err
	}

	state, running, err := b.follow(c, st.ID)
	t2 := time.Now()
	b.tr.add("server.events", t1, t2, root, rec.idx)
	if err != nil {
		return err
	}
	if state != "done" {
		return fmt.Errorf("job %s ended %s", st.ID, state)
	}
	rec.queue = running.Sub(t0)

	resp, err = c.get("/api/v1/jobs/" + st.ID + "/export")
	if err != nil {
		return err
	}
	raw, err = readOK(resp)
	if err != nil {
		return fmt.Errorf("export: %w", err)
	}
	t3 := time.Now()
	rec.export = t3.Sub(t2)
	b.tr.add("server.export", t2, t3, root, rec.idx)
	if err := rec.parseExport(raw, b.corpus.fresh); err != nil {
		return err
	}
	b.corpus.advance(rec.cfgs, 2)

	resp, err = c.do("DELETE", "/api/v1/jobs/"+st.ID, nil)
	if err != nil {
		return err
	}
	if err := drainOK(resp); err != nil {
		return fmt.Errorf("evict: %w", err)
	}
	b.tr.add("server.evict", t3, time.Now(), root, rec.idx)
	return nil
}

// follow reads a job's event stream to its terminal status, returning the
// state and when the job was first seen past "queued".
func (b *serviceBench) follow(c *svcClient, id string) (state string, running time.Time, err error) {
	resp, err := c.get("/api/v1/jobs/" + id + "/events")
	if err != nil {
		return "", running, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", running, fmt.Errorf("events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var st server.JobStatus
		if err := json.Unmarshal([]byte(data), &st); err != nil {
			return "", running, err
		}
		if st.State != "queued" && running.IsZero() {
			running = time.Now()
		}
		switch st.State {
		case "done", "failed", "cancelled":
			_, err := io.Copy(io.Discard, resp.Body)
			return st.State, running, err
		}
	}
	if err := sc.Err(); err != nil {
		return "", running, err
	}
	return "", running, errors.New("event stream ended without a terminal status")
}

// digest fingerprints a canonical result payload.
type digest [sha256.Size]byte

// parseExport checks an NDJSON export against the job's configurations
// and records its payloads for the post-run checks: a digest of each, and
// the bytes of those whose keys are in fresh.
func (rec *opRecord) parseExport(raw []byte, fresh map[string]int) error {
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	if len(lines) != len(rec.cfgs) {
		return fmt.Errorf("export has %d entries, job has %d configs", len(lines), len(rec.cfgs))
	}
	for i, line := range lines {
		var e server.ExportEntry
		if err := json.Unmarshal(line, &e); err != nil {
			return err
		}
		key, _ := rec.cfgs[i].Key()
		if e.Key != key {
			return fmt.Errorf("export entry %d is %q, want %q", i, e.Key, key)
		}
		rec.digests = append(rec.digests, sha256.Sum256(e.Result))
		var kept []byte
		if isNew(fresh, key) {
			kept = e.Result
		}
		rec.payloads = append(rec.payloads, kept)
	}
	return nil
}

// runQuery issues a corpus query and checks its record count against the
// corpus bounds.
func (b *serviceBench) runQuery(c *svcClient, rec *opRecord, root int) error {
	op := rec.op
	f := op.filterKey()
	lo, _ := b.corpus.bounds(f)
	q := url.Values{"benchmark": {op.Bench}}
	path := "/api/v1/aggregate?"
	if op.Query == "results" {
		q.Set("dways", strconv.Itoa(op.Ways))
		q.Set("dlatency", strconv.Itoa(op.Lat))
		path = "/api/v1/results?"
	} else {
		q.Set("by", "dPolicy")
		q.Set("metric", "dCacheEnergy")
	}
	t0 := time.Now()
	resp, err := c.get(path + q.Encode())
	if err != nil {
		return err
	}
	raw, err := readOK(resp)
	t1 := time.Now()
	rec.query = t1.Sub(t0)
	b.tr.add("server.query", t0, t1, root, rec.idx)
	if err != nil {
		return fmt.Errorf("query: %w", err)
	}
	_, hi := b.corpus.bounds(f)
	n := 0
	if op.Query == "results" {
		var recs []sweep.Record
		if err := json.Unmarshal(raw, &recs); err != nil {
			return err
		}
		for _, r := range recs {
			if r.Benchmark != op.Bench || r.DWays != op.Ways || r.DLatency != op.Lat {
				return fmt.Errorf("query returned a record outside its filter: %+v", r)
			}
		}
		n = len(recs)
	} else {
		var groups []sweep.GroupStat
		if err := json.Unmarshal(raw, &groups); err != nil {
			return err
		}
		for _, g := range groups {
			n += g.Count
		}
	}
	if n < lo || n > hi {
		return fmt.Errorf("%s query found %d records, want %d..%d", op.Query, n, lo, hi)
	}
	return nil
}

// svcPhase is what one timed phase produced.
type svcPhase struct {
	elapsed time.Duration
	recs    []*opRecord
	srv     *svcServer
	rescans int64 // corpus rescans the server made
}

// runPhase runs the closed loop: each client takes the next scheduled
// operation as soon as its previous one has completed, until the phase has
// lasted `seconds` and at least serviceMinOps operations were taken, or
// the schedule is used up.
func (b *serviceBench) runPhase(s *svcServer, seconds float64) *svcPhase {
	var next atomic.Int64
	recs := make([]*opRecord, len(b.plan.Ops))
	scans := s.hook.scans.Load()
	start := time.Now()
	var wg sync.WaitGroup
	for id := 0; id < serviceClients; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(id, s.base)
			defer c.close()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(recs) || (i >= serviceMinOps && time.Since(start).Seconds() >= seconds) {
					return
				}
				rec := &opRecord{idx: i, op: b.plan.Ops[i], start: time.Now()}
				root := b.tr.reserve(opRoot, rec.start, -1, i)
				if rec.op.Kind == opQuery {
					rec.err = b.runQuery(c, rec, root)
				} else {
					rec.err = b.runJob(c, rec, root)
				}
				rec.end = time.Now()
				b.tr.finish(root, rec.end)
				recs[i] = rec
			}
		}()
	}
	wg.Wait()
	ph := &svcPhase{elapsed: time.Since(start), srv: s, rescans: s.hook.scans.Load() - scans}
	for _, r := range recs {
		if r != nil {
			ph.recs = append(ph.recs, r)
		}
	}
	return ph
}

// tally counts the failed operations and collects the latencies, in
// milliseconds, of the others.
func tally(recs []*opRecord) (failed int, lat []float64) {
	for _, rec := range recs {
		if rec.err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "operation %d (%s) failed: %v\n", rec.idx, rec.op.Kind, rec.err)
			continue
		}
		lat = append(lat, float64(rec.end.Sub(rec.start))/1e6)
	}
	return failed, lat
}

// checkShare is the share of the exported configurations whose payloads
// are checked against an in-process run.
const checkShare = 0.1

// check verifies every exported payload: recalled ones byte for byte
// against the pre-built store, and every payload of a seeded sample of the
// configurations against core.EncodeResult of an in-process core.Run. A
// mismatch fails the operation.
func (b *serviceBench) check(ph *svcPhase, pristine string) error {
	db, err := resultdb.Open(pristine)
	if err != nil {
		return err
	}
	defer db.Close()
	rng := prng.FromSeed(b.o.seed, "sample")
	stored := map[string]*digest{} // nil: not in the pre-built store
	run := map[string]*digest{}    // nil: not sampled
	for _, rec := range ph.recs {
		if rec.err != nil || rec.op.Kind == opQuery {
			continue
		}
		for i, d := range rec.digests {
			key, _ := rec.cfgs[i].Key()
			s, ok := stored[key]
			if !ok {
				payload, found, err := db.GetEncoded(key)
				if err != nil {
					return err
				}
				if found {
					sum := digest(sha256.Sum256(payload))
					s = &sum
				}
				stored[key] = s
			}
			if s != nil && *s != d {
				rec.err = fmt.Errorf("recalled payload for %s differs from the stored bytes", key)
				break
			}
			r, ok := run[key]
			if !ok {
				if rng.Bool(checkShare) {
					res, err := core.Run(rec.cfgs[i])
					if err != nil {
						return err
					}
					payload, err := core.EncodeResult(res)
					if err != nil {
						return err
					}
					sum := digest(sha256.Sum256(payload))
					r = &sum
				}
				run[key] = r
			}
			if r != nil && *r != d {
				rec.err = fmt.Errorf("exported payload for %s differs from an in-process run", key)
				break
			}
		}
	}
	return nil
}

func (b *serviceBench) workDir(name string) (string, error) {
	dir := filepath.Join(b.o.dir, name)
	return dir, copyDir(filepath.Join(b.o.dir, "pristine"), dir)
}

// setup times store open, server start and the first corpus-cache fill,
// each on a fresh copy of the pre-built store; the last start serves the
// timed phase.
func (b *serviceBench) setup() (*svcServer, []time.Duration, error) {
	var s *svcServer
	var times []time.Duration
	for rep := 0; rep < serviceSetupReps; rep++ {
		dir, err := b.workDir(fmt.Sprintf("work-%d", rep))
		if err != nil {
			return nil, nil, err
		}
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, nil, err
			}
		}
		start := time.Now()
		if s, err = startServer(dir, b.tr, b.owner); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start))
	}
	return s, times, nil
}

// runService runs service-mixed and reports its end-to-end metrics
// (untraced) or per-layer metrics (traced).
func runService(o opts) (*report, error) {
	raw, err := os.ReadFile(filepath.Join(o.dir, planFile))
	if err != nil {
		return nil, err
	}
	b := &serviceBench{o: o, plan: &svcPlan{}, owners: map[string][2]int{}}
	if err := json.Unmarshal(raw, b.plan); err != nil {
		return nil, err
	}
	b.corpus = newCorpus(b.plan)
	if o.traced {
		b.tr = newTracer()
	}
	s, setup, err := b.setup()
	if err != nil {
		return nil, err
	}
	ph := b.runPhase(s, o.seconds)
	if err := s.stop(); err != nil {
		return nil, err
	}
	if len(ph.recs) == len(b.plan.Ops) {
		fmt.Fprintf(os.Stderr, "service-mixed: the schedule ran out after %d operations\n", len(ph.recs))
	}
	if err := b.check(ph, filepath.Join(o.dir, "pristine")); err != nil {
		return nil, err
	}
	failed, lat := tally(ph.recs)
	r := &report{Attempted: len(ph.recs), Failed: failed, Correct: failed == 0}
	fmt.Printf("%s seed %d: %d operations, %d simulations, %d memo hits\n",
		o.workload, o.seed, len(ph.recs), s.store.Misses(), s.store.Hits())
	if !o.traced {
		e := endToEnd{setup: setup, phase: ph.elapsed, windows: b.windows(ph), opLatency: lat, tail: serviceTail}
		e.describe(os.Stdout)
		e.fill(r)
		return r, nil
	}
	return b.layers(r, ph)
}

// windows cuts the phase into its complete schedule blocks: each spans
// from its first operation's start to its last one's end, and answers the
// configurations of its successful jobs and simulates its new ones.
func (b *serviceBench) windows(ph *svcPhase) []window {
	n := len(serviceBlock)
	var ws []window
	for lo := 0; lo+n <= len(ph.recs); lo += n {
		var w window
		first, last := ph.recs[lo].start, ph.recs[lo].end
		for _, rec := range ph.recs[lo : lo+n] {
			first, last = minTime(first, rec.start), maxTime(last, rec.end)
			if rec.err != nil {
				continue
			}
			w.configs += len(rec.digests)
			if rec.op.Kind == opNew {
				w.simInsts += b.plan.Shapes[rec.op.Shape].Insts
			}
		}
		w.d = last.Sub(first)
		ws = append(ws, w)
	}
	return ws
}

func minTime(a, b time.Time) time.Time {
	if b.Before(a) {
		return b
	}
	return a
}

func maxTime(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

// serverTimes sets the server metrics from the client side of the
// operations that succeeded: the p50 and tail of each request kind's
// latency, and the number of queries.
func (l *layerSet) serverTimes(recs []*opRecord, rescans int64) {
	var submit, queue, export, query []float64
	for _, rec := range recs {
		switch {
		case rec.err != nil:
		case rec.op.Kind == opQuery:
			query = append(query, float64(rec.query)/1e6)
		default:
			submit = append(submit, float64(rec.submit)/1e6)
			queue = append(queue, float64(rec.queue)/1e6)
			export = append(export, float64(rec.export)/1e6)
		}
	}
	for _, m := range []struct {
		dst *[2]float64
		xs  []float64
	}{{&l.submit, submit}, {&l.queue, queue}, {&l.export, export}, {&l.query, query}} {
		*m.dst = [2]float64{percentile(m.xs, 500), percentile(m.xs, tailTenths(len(m.xs)))}
	}
	l.queries = float64(len(query))
	l.rescans = float64(rescans)
}

// probeServer times the server layer for a workload that serves no HTTP:
// the first serviceProbeOps operations of seed's service-mixed schedule,
// over a store built in dir.
func (l *layerSet) probeServer(dir string, seed uint64) error {
	p := newServicePlan(seed, serviceProbeOps)
	if err := buildStore(dir, p); err != nil {
		return err
	}
	b := &serviceBench{plan: p, corpus: newCorpus(p), owners: map[string][2]int{}}
	s, err := startServer(dir, nil, b.owner)
	if err != nil {
		return err
	}
	ph := b.runPhase(s, 0)
	if err := s.stop(); err != nil {
		return err
	}
	for _, rec := range ph.recs {
		if rec.err != nil {
			return fmt.Errorf("server probe: operation %d: %w", rec.idx, rec.err)
		}
	}
	l.serverTimes(ph.recs, ph.rescans)
	return nil
}

// layers reports the traced run's per-layer metrics.
func (b *serviceBench) layers(r *report, ph *svcPhase) (*report, error) {
	var l layerSet
	s := ph.srv
	l.unattributedF = unattributed(b.tr.spans, ph.elapsed, serviceClients)
	l.memoHits, l.memoMisses = float64(s.store.Hits()), float64(s.store.Misses())
	l.serverTimes(ph.recs, ph.rescans)
	l.residentMB = arenaResidentMB()

	var cfgs []core.Config
	var recalled []string
	var fresh []*core.Result
	var counted []*core.Result
	freshKeys := b.plan.newCells()
	seen := map[string]bool{}
	for _, rec := range ph.recs {
		if rec.err != nil || rec.op.Kind == opQuery {
			continue
		}
		for i, c := range rec.cfgs {
			key, _ := c.Key()
			if seen[key] {
				continue
			}
			seen[key] = true
			cfgs = append(cfgs, c)
			if !isNew(freshKeys, key) {
				recalled = append(recalled, key)
				continue
			}
			res, err := core.DecodeResult(rec.payloads[i])
			if err != nil {
				return nil, err
			}
			fresh = append(fresh, res)
			if freshKeys[key] < serviceMinOps {
				counted = append(counted, res)
			}
		}
	}
	l.countResults(counted)

	// Tracing overhead: the same schedule again, untraced, on a fresh copy.
	tr := b.tr
	b.tr = nil
	dir, err := b.workDir("work-plain")
	if err != nil {
		return nil, err
	}
	ps, err := startServer(dir, nil, b.owner)
	if err != nil {
		return nil, err
	}
	b.corpus = newCorpus(b.plan)
	plain := b.runPhase(ps, b.o.seconds)
	if err := ps.stop(); err != nil {
		return nil, err
	}
	b.tr = tr
	l.tracingOverhead = (float64(len(plain.recs))/plain.elapsed.Seconds())/(float64(len(ph.recs))/ph.elapsed.Seconds()) - 1

	if err := l.probeStreams(workload.Names(), serviceInsts, cfgs, fresh); err != nil {
		return nil, err
	}
	ts, hashes, err := openCaptures(b.o.dir)
	if err != nil {
		return nil, err
	}
	if err := l.probeTrace(ts, hashes); err != nil {
		return nil, err
	}
	if dir, err = b.workDir("work-probe"); err != nil {
		return nil, err
	}
	if l.rdbOpenMs, l.rdbGetUs, l.rdbPutUs, err = probeResultDB(dir, fresh, recalled); err != nil {
		return nil, err
	}
	newCfgs := make([]core.Config, len(fresh))
	for i, res := range fresh {
		newCfgs[i] = res.Config
	}
	if l.engineS, l.engineOverhead, err = probeEngine(newCfgs); err != nil {
		return nil, err
	}
	if l.emitMs, err = probeEmit(fresh, jobSpan); err != nil {
		return nil, err
	}
	l.attribute(s.hook.simRuns(), fresh, l.genNs)
	l.fill(r)
	return r, b.tr.write(spanPath(b.o))
}
