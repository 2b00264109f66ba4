package coord

// Chaos tests for the elastic coordinator: seeded fault injection
// (drops, truncated responses, 5xx bursts, latency spikes, frozen
// hosts), rescues of stragglers and frozen hosts, and mid-run
// membership changes through the hosts file. Every test's acceptance
// bar is the same as the clean-path tests': the merged output must be
// byte-identical to a single-host run of the same grid.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"waycache/internal/core"
	"waycache/internal/faultinject"
	"waycache/internal/server"
	"waycache/internal/sweep"
)

// canonicalEntries computes the exact export entries a real waycached
// host would serve for configs [lo, hi) of the normalized grid — what a
// scripted stub host hands a rescuing coordinator.
func canonicalEntries(t *testing.T, g sweep.Grid, lo, hi int) []server.ExportEntry {
	t.Helper()
	eng := sweep.New(sweep.Options{Workers: 2})
	cfgs := g.Configs()[lo:hi]
	results, err := eng.RunConfigs(context.Background(), cfgs)
	if err != nil {
		t.Fatalf("computing canonical result: %v", err)
	}
	entries := make([]server.ExportEntry, 0, len(cfgs))
	for i, cfg := range cfgs {
		key, _ := cfg.Key()
		payload, err := core.EncodeResult(results[i])
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, server.ExportEntry{Key: key, Result: payload})
	}
	return entries
}

// stubStraggler speaks just enough of the waycached job API to play a
// straggler: it accepts exactly one span submission, then reports the
// job running forever with a watermark frozen at wm finished configs.
// Its partial export serves real canonical payloads (computed locally),
// so a rescue banks bytes indistinguishable from a live host's. Further
// submissions are refused — the host is "too wedged to take more work".
type stubStraggler struct {
	t  *testing.T
	g  sweep.Grid // normalized: Configs() order matches the hosts'
	wm int        // watermark the stub claims, forever

	mu        sync.Mutex
	submits   int
	cancels   int
	cancelled bool
	name      string
	lo, hi    int
}

func (s *stubStraggler) status() server.JobStatus {
	st := server.JobStatus{
		ID: "stub-job", Name: s.name, State: "running",
		Span:      sweep.FormatSpan(s.lo, s.hi),
		Done:      s.wm,
		Total:     s.hi - s.lo,
		Watermark: s.wm,
	}
	if s.cancelled {
		st.State = "cancelled"
	}
	return st
}

func (s *stubStraggler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	path := r.URL.Path
	switch {
	case r.Method == http.MethodPost && strings.HasSuffix(path, "/jobs"):
		if s.submits > 0 {
			http.Error(w, "stub: refusing further work", http.StatusServiceUnavailable)
			return
		}
		var req server.JobRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		lo, hi, err := sweep.ParseSpan(req.Span)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.submits++
		s.name, s.lo, s.hi = req.Name, lo, hi
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(s.status())
	case strings.HasSuffix(path, "/events"):
		http.Error(w, "stub has no streams", http.StatusNotFound)
	case strings.HasSuffix(path, "/cancel"):
		s.cancels++
		s.cancelled = true
		json.NewEncoder(w).Encode(s.status())
	case strings.HasSuffix(path, "/export"):
		n, err := strconv.Atoi(r.URL.Query().Get("prefix"))
		if err != nil || n < 0 || n > s.wm {
			http.Error(w, "stub: bad prefix", http.StatusConflict)
			return
		}
		entries := canonicalEntries(s.t, s.g, s.lo, s.lo+n)
		enc := json.NewEncoder(w)
		for _, e := range entries {
			enc.Encode(e)
		}
	case r.Method == http.MethodDelete:
		w.WriteHeader(http.StatusOK)
	case r.Method == http.MethodGet && strings.HasSuffix(path, "/jobs"):
		json.NewEncoder(w).Encode([]server.JobStatus{s.status()})
	default:
		json.NewEncoder(w).Encode(s.status())
	}
}

// chaosHost wraps a fresh waycached instance in a seeded fault proxy.
func chaosHost(t *testing.T, seed uint64, rules ...faultinject.Rule) (string, *faultinject.Proxy) {
	t.Helper()
	srv := server.New(server.Options{Workers: 2})
	proxy := faultinject.New(srv, seed, rules...)
	ts := httptest.NewServer(proxy)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts.URL, proxy
}

// TestChaosFaultsStillByteIdentical is the seeded-chaos acceptance
// test: three hosts perturbed by dropped connections, 5xx bursts,
// latency spikes, and a truncated export stream must still merge into
// JSON and CSV byte-identical to a single-host run.
func TestChaosFaultsStillByteIdentical(t *testing.T) {
	g := testGrid()
	hostA, proxyA := chaosHost(t, 11,
		faultinject.Rule{Kind: faultinject.Drop, After: 2, Every: 3, Count: 3})
	hostB, proxyB := chaosHost(t, 22,
		faultinject.Rule{Kind: faultinject.Status, Code: 503, Every: 4, Count: 3},
		faultinject.Rule{Kind: faultinject.Delay, Delay: 40 * time.Millisecond, After: 1, Every: 5, Count: 2})
	hostC, proxyC := chaosHost(t, 33,
		faultinject.Rule{Path: "/export", Kind: faultinject.Truncate, Bytes: 120, Count: 1})

	res, err := Run(context.Background(), g, Options{
		Hosts:        []string{hostA, hostB, hostC},
		Shards:       6,
		PollInterval: 15 * time.Millisecond,
		Retry:        RetryPolicy{MaxAttempts: 4, BaseDelay: 20 * time.Millisecond, MaxDelay: 200 * time.Millisecond},
		Seed:         7,
		Name:         "t-chaos",
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	wantJSON, wantCSV := singleHostBytes(t, g)
	gotJSON, gotCSV := coordBytes(t, res)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Error("chaos merge differs from single-host sweep JSON")
	}
	if !bytes.Equal(gotCSV, wantCSV) {
		t.Error("chaos merge differs from single-host sweep CSV")
	}
	for name, p := range map[string]*faultinject.Proxy{"A": proxyA, "B": proxyB, "C": proxyC} {
		fired := 0
		for _, n := range p.Faults() {
			fired += n
		}
		if fired == 0 {
			t.Errorf("host %s's fault schedule never fired — the test exercised nothing there", name)
		}
		t.Logf("host %s faults: %v", name, p.Faults())
	}
}

// TestStealsFromStraggler is the straggler acceptance test: a host that
// finishes part of its span and then wedges (watermark frozen, job
// running forever) must not gate the sweep on its full shard. An idle
// host banks the finished prefix through the partial export and flies
// the remainder itself, and the merge is still byte-identical.
func TestStealsFromStraggler(t *testing.T) {
	g := testGrid()
	ng, err := g.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	stub := &stubStraggler{t: t, g: ng, wm: 2}
	stubTS := httptest.NewServer(stub)
	t.Cleanup(stubTS.Close)
	realURL := newHost(t)

	res, err := Run(context.Background(), g, Options{
		Hosts:          []string{stubTS.URL, realURL},
		Shards:         2,
		PollInterval:   20 * time.Millisecond,
		StallAfter:     300 * time.Millisecond,
		RequestTimeout: 2 * time.Second,
		Retry:          RetryPolicy{MaxAttempts: 2, BaseDelay: 30 * time.Millisecond},
		MaxAttempts:    3,
		Name:           "t-steal",
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	wantJSON, wantCSV := singleHostBytes(t, g)
	gotJSON, gotCSV := coordBytes(t, res)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Error("post-steal merge differs from single-host sweep JSON")
	}
	if !bytes.Equal(gotCSV, wantCSV) {
		t.Error("post-steal merge differs from single-host sweep CSV")
	}

	stolen := 0
	for _, sh := range res.Shards {
		if !sh.Stolen {
			continue
		}
		stolen++
		if sh.Host != stubTS.URL {
			t.Errorf("stolen piece credits %s, want the straggler %s", sh.Host, stubTS.URL)
		}
		if sh.Configs != stub.wm {
			t.Errorf("stolen piece holds %d configs, want the straggler's watermark %d", sh.Configs, stub.wm)
		}
	}
	if stolen != 1 {
		t.Fatalf("%d stolen pieces in the merge, want exactly 1", stolen)
	}
	stub.mu.Lock()
	cancels := stub.cancels
	stub.mu.Unlock()
	if cancels == 0 {
		t.Error("the straggler's job was never cancelled after the steal")
	}
	for _, h := range res.Hosts {
		if h.Host == realURL && h.Steals == 0 {
			t.Errorf("surviving host reports no steals: %+v", h)
		}
	}
}

// TestSpeculationRescuesFrozenHost: a host that freezes solid right
// after accepting a span (no watermark, nothing to bank) is rescued by
// an idle host that duplicates the span outright; its full export wins.
func TestSpeculationRescuesFrozenHost(t *testing.T) {
	g := testGrid()
	srvA := server.New(server.Options{Workers: 2})
	proxyA := faultinject.New(srvA, 1)
	frozenA := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		proxyA.ServeHTTP(w, r)
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/jobs") {
			proxyA.Freeze() // wedge the host the moment it takes work
		}
	}))
	t.Cleanup(func() { frozenA.Close(); proxyA.Unfreeze(); srvA.Close() })
	hostB := newHost(t)

	res, err := Run(context.Background(), g, Options{
		Hosts:          []string{frozenA.URL, hostB},
		Shards:         2,
		PollInterval:   20 * time.Millisecond,
		StallAfter:     250 * time.Millisecond,
		RequestTimeout: 500 * time.Millisecond,
		Retry:          RetryPolicy{MaxAttempts: 2, BaseDelay: 30 * time.Millisecond, MaxDelay: 100 * time.Millisecond},
		MaxAttempts:    3,
		Name:           "t-spec",
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	wantJSON, _ := singleHostBytes(t, g)
	gotJSON, _ := coordBytes(t, res)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Error("post-speculation merge differs from single-host sweep JSON")
	}
	speculative := 0
	for _, sh := range res.Shards {
		if sh.Speculative {
			speculative++
			if sh.Host != hostB {
				t.Errorf("speculative piece credits %s, want the rescuer %s", sh.Host, hostB)
			}
		}
	}
	if speculative == 0 {
		t.Error("no speculative piece in the merge — the frozen host's span was recovered another way (or not at all)")
	}
	for _, h := range res.Hosts {
		if h.Host == hostB && h.Speculations == 0 {
			t.Errorf("rescuer reports no speculations: %+v", h)
		}
	}
}

// writeHostsFile (re)writes a hosts file the coordinator is watching.
func writeHostsFile(t *testing.T, path string, hosts ...string) {
	t.Helper()
	if err := os.WriteFile(path, []byte("# chaos test fleet\n"+strings.Join(hosts, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestHostsFileLateJoinCompletesRun: the run starts with only a host
// that never makes progress; a real host appended to the hosts file
// mid-run must join, receive a duplicated span, and finish the sweep.
func TestHostsFileLateJoinCompletesRun(t *testing.T) {
	g := testGrid()
	ng, err := g.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	stub := &stubStraggler{t: t, g: ng, wm: 0} // running forever, zero progress
	stubTS := httptest.NewServer(stub)
	t.Cleanup(stubTS.Close)
	realURL := newHost(t)

	hostsFile := filepath.Join(t.TempDir(), "hosts")
	writeHostsFile(t, hostsFile, stubTS.URL)

	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := Run(context.Background(), g, Options{
			HostsFile:      hostsFile,
			PollInterval:   25 * time.Millisecond,
			StallAfter:     200 * time.Millisecond,
			RequestTimeout: 2 * time.Second,
			Retry:          RetryPolicy{MaxAttempts: 2, BaseDelay: 30 * time.Millisecond},
			Name:           "t-late-join",
			Logf:           t.Logf,
		})
		done <- outcome{res, err}
	}()

	time.Sleep(250 * time.Millisecond)
	writeHostsFile(t, hostsFile, stubTS.URL, realURL)

	var out outcome
	select {
	case out = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("run did not finish after the rescuing host joined")
	}
	if out.err != nil {
		t.Fatal(out.err)
	}

	wantJSON, _ := singleHostBytes(t, g)
	gotJSON, _ := coordBytes(t, out.res)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Error("late-join merge differs from single-host sweep JSON")
	}
	joined := false
	for _, h := range out.res.Hosts {
		if h.Host == realURL {
			joined = h.Joined
			if h.Configs != g.Size() {
				t.Errorf("joiner banked %d configs, want the whole grid (%d)", h.Configs, g.Size())
			}
		}
	}
	if !joined {
		t.Error("the rescuing host is not reported as a mid-run joiner")
	}
}

// TestHostsFileDrainRemovesHost: removing a host from the hosts file
// mid-run drains it — it finishes its current span, takes no more work,
// and the rest of the sweep lands on the remaining host.
func TestHostsFileDrainRemovesHost(t *testing.T) {
	g := testGrid()
	hostA := newHost(t)
	// Host B's events stream answers only after a delay, so its first
	// flight reliably outlives the drain signal.
	hostB, _ := chaosHost(t, 1,
		faultinject.Rule{Path: "/events", Kind: faultinject.Delay, Delay: 600 * time.Millisecond})

	hostsFile := filepath.Join(t.TempDir(), "hosts")
	writeHostsFile(t, hostsFile, hostA, hostB)

	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := Run(context.Background(), g, Options{
			HostsFile:      hostsFile,
			Shards:         4,
			PollInterval:   25 * time.Millisecond,
			RequestTimeout: 5 * time.Second,
			Name:           "t-drain",
			Logf:           t.Logf,
		})
		done <- outcome{res, err}
	}()

	time.Sleep(150 * time.Millisecond)
	writeHostsFile(t, hostsFile, hostA) // B is gone from the fleet listing

	var out outcome
	select {
	case out = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("run did not finish after the drain")
	}
	if out.err != nil {
		t.Fatal(out.err)
	}

	wantJSON, _ := singleHostBytes(t, g)
	gotJSON, _ := coordBytes(t, out.res)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Error("post-drain merge differs from single-host sweep JSON")
	}
	for _, h := range out.res.Hosts {
		switch h.Host {
		case hostB:
			if h.State != hostDrained {
				t.Errorf("removed host state = %q, want %q", h.State, hostDrained)
			}
			if h.Flights != 1 {
				t.Errorf("removed host flew %d spans, want exactly the 1 it held when drained", h.Flights)
			}
		case hostA:
			if h.Flights != 3 {
				t.Errorf("surviving host flew %d spans, want the other 3", h.Flights)
			}
		}
	}
}

// TestStreamTruncationFallsBackToPoll: an SSE events stream cut off
// mid-payload must route the flight to the status poll loop without
// burning one of the span's attempts.
func TestStreamTruncationFallsBackToPoll(t *testing.T) {
	g := testGrid()
	host, proxy := chaosHost(t, 1,
		faultinject.Rule{Path: "/events", Kind: faultinject.Truncate, Bytes: 60, Count: 1})

	fellBack := 0
	res, err := Run(context.Background(), g, Options{
		Hosts:          []string{host},
		PollInterval:   15 * time.Millisecond,
		RequestTimeout: time.Second,
		Name:           "t-truncated-stream",
		Logf: func(f string, args ...any) {
			if strings.Contains(f, "polling instead") {
				fellBack++
			}
			t.Logf(f, args...)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := singleHostBytes(t, g)
	gotJSON, _ := coordBytes(t, res)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Error("truncated-stream merge differs from single-host sweep JSON")
	}
	if fellBack == 0 {
		t.Error("run never logged a poll fallback — the truncated stream was not exercised")
	}
	if n := proxy.Faults()["truncate  /events"]; n != 1 {
		t.Errorf("truncation fired %d times, want 1 (faults: %v)", n, proxy.Faults())
	}
	for _, sh := range res.Shards {
		if sh.Attempts != 1 {
			t.Errorf("span %s burned %d attempts on a broken stream, want 1 (polling is not a failure)",
				sweep.FormatSpan(sh.Lo, sh.Hi), sh.Attempts)
		}
	}
}

// TestWatchdogExpiryOnSilentStream: an events endpoint that accepts the
// connection and then never answers (no headers, no bytes — a wedged
// proxy) must trip the inactivity watchdog and fall back to polling,
// again without burning an attempt.
func TestWatchdogExpiryOnSilentStream(t *testing.T) {
	g := testGrid()
	srv := server.New(server.Options{Workers: 2})
	silent := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			<-r.Context().Done() // hold the stream open, send nothing, ever
			return
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { silent.Close(); srv.Close() })

	fellBack := 0
	start := time.Now()
	res, err := Run(context.Background(), g, Options{
		Hosts:          []string{silent.URL},
		PollInterval:   15 * time.Millisecond,
		RequestTimeout: 300 * time.Millisecond,
		Name:           "t-watchdog",
		Logf: func(f string, args ...any) {
			if strings.Contains(f, "polling instead") {
				fellBack++
			}
			t.Logf(f, args...)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := singleHostBytes(t, g)
	gotJSON, _ := coordBytes(t, res)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Error("watchdog-fallback merge differs from single-host sweep JSON")
	}
	if fellBack == 0 {
		t.Error("the silent stream never tripped the watchdog into a poll fallback")
	}
	for _, sh := range res.Shards {
		if sh.Attempts != 1 {
			t.Errorf("span %s burned %d attempts on a silent stream, want 1", sweep.FormatSpan(sh.Lo, sh.Hi), sh.Attempts)
		}
	}
	if d := time.Since(start); d > 20*time.Second {
		t.Errorf("run took %v — the watchdog did not bound the silent stream", d)
	}
}
