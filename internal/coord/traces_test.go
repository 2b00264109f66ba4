package coord

import (
	"bytes"
	"context"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"waycache/internal/server"
	"waycache/internal/sweep"
	"waycache/internal/trace"
	"waycache/internal/tracestore"
	"waycache/internal/workload"
)

// newTraceHost starts a waycached instance with its own trace store and
// returns its base URL and the store (for seeding and inspection).
func newTraceHost(t *testing.T) (string, *tracestore.Store) {
	t.Helper()
	store, err := tracestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Options{Workers: 2, TraceStore: store})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts.URL, store
}

// seedCapture captures bench into store and returns the content hash.
func seedCapture(t *testing.T, store *tracestore.Store, bench string, n int64) string {
	t.Helper()
	p, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), bench+trace.FileExt)
	if err := p.CaptureFile(path, n); err != nil {
		t.Fatal(err)
	}
	hash, _, err := store.PutFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return hash
}

// TestTraceDistributionTwoHosts is the PR's distributed acceptance
// property: a trace uploaded to ONE host serves a trace:// sweep across
// TWO coordinated hosts — the coordinator relays the object to the host
// that lacks it (through an ephemeral store; no local -tracestore) —
// with zero walker fallbacks and merged output byte-identical to a
// single-host walker run of the same grid.
func TestTraceDistributionTwoHosts(t *testing.T) {
	const insts = 5_000
	h1, s1 := newTraceHost(t)
	h2, s2 := newTraceHost(t)
	hash := seedCapture(t, s1, "gcc", insts)

	g := sweep.Grid{
		Benchmarks: []string{"gcc"},
		DWays:      []int{1, 2, 4, 8},
		Insts:      insts,
		TraceRefs:  map[string]string{"gcc": trace.FormatRef(hash)},
	}
	res, err := Run(context.Background(), g, Options{
		Hosts:        []string{h1, h2},
		PollInterval: 10 * time.Millisecond,
		Name:         "t-trace-dist",
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	if !s2.Has(hash) {
		t.Error("trace was not pushed to the host that lacked it")
	}
	hostsSeen := map[string]bool{}
	for _, sh := range res.Shards {
		hostsSeen[sh.Host] = true
		if len(sh.TraceFallbacks) != 0 {
			t.Errorf("shard %d fell back to the walker: %v", sh.Index, sh.TraceFallbacks)
		}
	}
	if !hostsSeen[h1] || !hostsSeen[h2] {
		t.Errorf("shards did not span both hosts: %v", hostsSeen)
	}

	walk := g
	walk.TraceRefs = nil
	wantJSON, wantCSV := singleHostBytes(t, walk)
	gotJSON, gotCSV := coordBytes(t, res)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Error("distributed trace:// JSON differs from single-host walker JSON")
	}
	if !bytes.Equal(gotCSV, wantCSV) {
		t.Error("distributed trace:// CSV differs from single-host walker CSV")
	}
}

// TestTraceDistributionFromLocalStore: the coordinator's own -tracestore
// is the donor when no host has the object yet.
func TestTraceDistributionFromLocalStore(t *testing.T) {
	const insts = 2_000
	h1, s1 := newTraceHost(t)
	h2, s2 := newTraceHost(t)
	local, err := tracestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hash := seedCapture(t, local, "swim", insts)

	g := sweep.Grid{
		Benchmarks: []string{"swim"},
		DWays:      []int{2, 4},
		Insts:      insts,
		TraceRefs:  map[string]string{"swim": trace.FormatRef(hash)},
	}
	res, err := Run(context.Background(), g, Options{
		Hosts:        []string{h1, h2},
		PollInterval: 10 * time.Millisecond,
		TraceStore:   local,
		Name:         "t-trace-local",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !s1.Has(hash) || !s2.Has(hash) {
		t.Errorf("local trace was not pushed everywhere (host1=%v host2=%v)", s1.Has(hash), s2.Has(hash))
	}
	for _, sh := range res.Shards {
		if len(sh.TraceFallbacks) != 0 {
			t.Errorf("shard %d fell back: %v", sh.Index, sh.TraceFallbacks)
		}
	}
}

// TestTraceNowhereAbortsRun: a referenced hash that exists neither
// locally nor on any host fails fast, before any shard is submitted.
func TestTraceNowhereAbortsRun(t *testing.T) {
	h1, _ := newTraceHost(t)
	g := sweep.Grid{
		Benchmarks: []string{"gcc"},
		Insts:      1000,
		TraceRefs:  map[string]string{"gcc": trace.FormatRef(strings.Repeat("ab", 32))},
	}
	_, err := Run(context.Background(), g, Options{Hosts: []string{h1}, Name: "t-trace-nowhere"})
	if err == nil || !strings.Contains(err.Error(), "on no host") {
		t.Fatalf("err = %v, want a trace-nowhere abort", err)
	}
}

// TestHostWithoutTraceStoreIsDropped: a host running without -tracestore
// cannot replay references; the coordinator retires it up front and the
// run completes on the hosts that can.
func TestHostWithoutTraceStoreIsDropped(t *testing.T) {
	const insts = 2_000
	bare := newHost(t) // no trace store
	h1, s1 := newTraceHost(t)
	hash := seedCapture(t, s1, "gcc", insts)

	g := sweep.Grid{
		Benchmarks: []string{"gcc"},
		DWays:      []int{2, 4},
		Insts:      insts,
		TraceRefs:  map[string]string{"gcc": trace.FormatRef(hash)},
	}
	res, err := Run(context.Background(), g, Options{
		Hosts:        []string{bare, h1}, // storeless host listed first
		PollInterval: 10 * time.Millisecond,
		Name:         "t-trace-drop",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range res.Shards {
		if sh.Host != h1 {
			t.Errorf("shard %d ran on %s, want only the trace-capable host %s", sh.Index, sh.Host, h1)
		}
		if len(sh.TraceFallbacks) != 0 {
			t.Errorf("shard %d fell back: %v", sh.Index, sh.TraceFallbacks)
		}
	}
}

// TestTraceDistributionToLateJoiner: a host joining mid-run through the
// hosts file receives the grid's traces before its first span, and a
// joiner without a trace store is refused. The starting host is a
// straggler that never progresses, so the joiner must finish the sweep
// by replaying the pushed capture.
func TestTraceDistributionToLateJoiner(t *testing.T) {
	const insts = 5_000
	local, err := tracestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hash := seedCapture(t, local, "gcc", insts)
	g := testGrid()
	g.TraceRefs = map[string]string{"gcc": trace.FormatRef(hash)}
	ng, err := g.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	// The stub answers every probe 200, so it counts as holding the trace.
	stubTS := httptest.NewServer(&stubStraggler{t: t, g: ng, wm: 0})
	t.Cleanup(stubTS.Close)
	joiner, joinerStore := newTraceHost(t)
	bare := newHost(t)

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
			TraceStore:     local,
			Name:           "t-trace-late-join",
			Logf:           t.Logf,
		})
		done <- outcome{res, err}
	}()
	time.Sleep(250 * time.Millisecond)
	writeHostsFile(t, hostsFile, stubTS.URL, bare, joiner)

	var out outcome
	select {
	case out = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("run did not finish after the trace-capable host joined")
	}
	if out.err != nil {
		t.Fatal(out.err)
	}
	if !joinerStore.Has(hash) {
		t.Error("the late joiner never received the trace")
	}
	for _, sh := range out.res.Shards {
		if sh.Host != joiner {
			t.Errorf("shard %d ran on %s, want the trace-capable joiner", sh.Index, sh.Host)
		}
		if len(sh.TraceFallbacks) != 0 {
			t.Errorf("shard %d fell back to the walker: %v", sh.Index, sh.TraceFallbacks)
		}
	}
	for _, h := range out.res.Hosts {
		if h.Host == bare {
			t.Errorf("the storeless joiner entered the run: %+v", h)
		}
	}
	walk := g
	walk.TraceRefs = nil
	wantJSON, _ := singleHostBytes(t, walk)
	gotJSON, _ := coordBytes(t, out.res)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Error("late-join trace:// merge differs from single-host walker JSON")
	}
}
