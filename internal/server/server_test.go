package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"waycache/internal/access"
	"waycache/internal/core"
	"waycache/internal/sweep"
	"waycache/internal/trace"
	"waycache/internal/workload"
)

// testGridJSON is the grid every end-to-end test submits: small, two
// benchmarks, a policy and geometry dimension.
const testGridJSON = `{
  "Benchmarks": ["gcc", "swim"],
  "DPolicies": ["parallel", "seldm+waypred"],
  "DWays": [2, 4],
  "Insts": 5000
}`

func testGrid() sweep.Grid {
	return sweep.Grid{
		Benchmarks: []string{"gcc", "swim"},
		DPolicies:  []access.DPolicy{access.DParallel, access.DSelDMWayPred},
		DWays:      []int{2, 4},
		Insts:      5_000,
	}
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Options{Workers: 4})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding body: %v", url, err)
		}
	}
	return resp
}

func submit(t *testing.T, base, body string) JobStatus {
	t.Helper()
	resp, err := http.Post(base+"/api/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /api/v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	return st
}

func pollDone(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		var st JobStatus
		getJSON(t, base+"/api/v1/jobs/"+id, &st)
		switch st.State {
		case "done":
			if st.Done != st.Total {
				t.Errorf("done job reports done=%d total=%d", st.Done, st.Total)
			}
			return st
		case "failed":
			t.Fatalf("job %s failed: %s", id, st.Error)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

func fetch(t *testing.T, url string) ([]byte, *http.Response) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	return buf.Bytes(), resp
}

func TestSubmitPollResultsByteIdentical(t *testing.T) {
	// Acceptance: waycached serves a submitted grid's records
	// byte-identically to the offline CLI path (engine + Sweep writers).
	_, ts := newTestServer(t)

	st := submit(t, ts.URL, testGridJSON)
	if st.State != "queued" || st.Total != testGrid().Size() {
		t.Errorf("submit status = %+v", st)
	}
	pollDone(t, ts.URL, st.ID)

	// Offline reference: same grid through a fresh engine, as cmd/sweep
	// runs it.
	eng := sweep.New(sweep.Options{Workers: 4})
	sw, err := eng.Run(context.Background(), testGrid())
	if err != nil {
		t.Fatalf("offline run: %v", err)
	}
	var wantJSON, wantCSV bytes.Buffer
	if err := sw.WriteJSON(&wantJSON); err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteCSV(&wantCSV); err != nil {
		t.Fatal(err)
	}

	gotJSON, resp := fetch(t, ts.URL+"/api/v1/jobs/"+st.ID+"/results")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("JSON Content-Type = %q", ct)
	}
	if !bytes.Equal(gotJSON, wantJSON.Bytes()) {
		t.Errorf("served JSON differs from offline sweep output")
	}

	gotCSV, resp := fetch(t, ts.URL+"/api/v1/jobs/"+st.ID+"/results?format=csv")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("csv results status = %d", resp.StatusCode)
	}
	if !bytes.Equal(gotCSV, wantCSV.Bytes()) {
		t.Errorf("served CSV differs from offline sweep output")
	}
}

func TestJobResultsBeforeDone(t *testing.T) {
	_, ts := newTestServer(t)
	st := submit(t, ts.URL, testGridJSON)
	// Immediately asking for results may race completion; a 409 carries
	// the job status, a 200 the records. Anything else is a bug.
	_, resp := fetch(t, ts.URL+"/api/v1/jobs/"+st.ID+"/results")
	if resp.StatusCode != http.StatusConflict && resp.StatusCode != http.StatusOK {
		t.Errorf("early results status = %d, want 409 or 200", resp.StatusCode)
	}
	pollDone(t, ts.URL, st.ID)
}

func TestQueryAndAggregate(t *testing.T) {
	_, ts := newTestServer(t)
	st := submit(t, ts.URL, testGridJSON)
	pollDone(t, ts.URL, st.ID)

	var recs []sweep.Record
	getJSON(t, ts.URL+"/api/v1/results?benchmark=gcc&dpolicy=seldm%2Bwaypred", &recs)
	if len(recs) != 2 {
		t.Fatalf("filtered query returned %d records, want 2 (dways 2 and 4)", len(recs))
	}
	for _, r := range recs {
		if r.Benchmark != "gcc" || r.DPolicy != "seldm+waypred" {
			t.Errorf("filter leaked record %s/%s", r.Benchmark, r.DPolicy)
		}
	}
	if recs[0].DWays != 2 || recs[1].DWays != 4 {
		t.Errorf("query results not in canonical order: dways %d,%d", recs[0].DWays, recs[1].DWays)
	}

	var empty []sweep.Record
	getJSON(t, ts.URL+"/api/v1/results?dways=16", &empty)
	if len(empty) != 0 {
		t.Errorf("dways=16 matched %d records, want 0", len(empty))
	}

	var stats []sweep.GroupStat
	getJSON(t, ts.URL+"/api/v1/aggregate?by=dPolicy&metric=dCacheEnergy", &stats)
	if len(stats) != 2 {
		t.Fatalf("aggregate returned %d groups, want 2", len(stats))
	}
	// Canonical group order is sorted: "parallel" before "seldm+waypred";
	// way prediction must cost less d-cache energy than parallel probes.
	if stats[0].Group != "parallel" || stats[1].Group != "seldm+waypred" {
		t.Errorf("groups = %s,%s", stats[0].Group, stats[1].Group)
	}
	if !(stats[1].Mean < stats[0].Mean) {
		t.Errorf("seldm+waypred mean energy %.1f not below parallel %.1f", stats[1].Mean, stats[0].Mean)
	}
	for _, g := range stats {
		if g.Count != 4 { // 2 benchmarks x 2 dways
			t.Errorf("group %s count = %d, want 4", g.Group, g.Count)
		}
	}

	_, resp := fetch(t, ts.URL+"/api/v1/aggregate?by=bogus")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus dimension status = %d, want 400", resp.StatusCode)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t)
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"malformed JSON", `{not json`, http.StatusBadRequest},
		{"unknown field", `{"Wat": 1}`, http.StatusBadRequest},
		{"unknown benchmark", `{"Benchmarks":["nope"]}`, http.StatusBadRequest},
		{"unknown policy", `{"DPolicies":["bogus"]}`, http.StatusBadRequest},
		// 1025 x 1025 values expand past MaxGridSize (1<<20) while the
		// body stays small, so the grid-size limit (not the body cap) is
		// what rejects it.
		{"oversized grid", fmt.Sprintf(`{"DWays":[%s1],"DSizes":[%s1]}`,
			strings.Repeat("1,", 1024), strings.Repeat("1,", 1024)), http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	_, resp := fetch(t, ts.URL+"/api/v1/jobs/job-999")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", resp.StatusCode)
	}
	_, resp = fetch(t, ts.URL+"/api/v1/results?dways=x")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad filter status = %d, want 400", resp.StatusCode)
	}
	_, resp = fetch(t, ts.URL+"/api/v1/results?format=xml")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad format status = %d, want 400", resp.StatusCode)
	}
}

func TestJobsShareStore(t *testing.T) {
	// A re-submitted grid must cost memo hits, not simulations.
	srv, ts := newTestServer(t)
	st1 := submit(t, ts.URL, testGridJSON)
	pollDone(t, ts.URL, st1.ID)
	misses := srv.store.Misses()

	st2 := submit(t, ts.URL, testGridJSON)
	pollDone(t, ts.URL, st2.ID)
	if srv.store.Misses() != misses {
		t.Errorf("re-submitted grid simulated fresh configs: misses %d -> %d", misses, srv.store.Misses())
	}

	var jobs []JobStatus
	getJSON(t, ts.URL+"/api/v1/jobs", &jobs)
	if len(jobs) != 2 || jobs[0].ID != st1.ID || jobs[1].ID != st2.ID {
		t.Errorf("job list = %+v", jobs)
	}

	var stats struct {
		Store struct {
			Hits    int64 `json:"hits"`
			Misses  int64 `json:"misses"`
			Entries int   `json:"entries"`
		} `json:"store"`
		Jobs struct {
			Done int `json:"done"`
		} `json:"jobs"`
	}
	getJSON(t, ts.URL+"/api/v1/stats", &stats)
	if stats.Jobs.Done != 2 {
		t.Errorf("stats done jobs = %d, want 2", stats.Jobs.Done)
	}
	if stats.Store.Entries == 0 || stats.Store.Hits == 0 || stats.Store.Misses == 0 {
		t.Errorf("stats counters look empty: %+v", stats.Store)
	}
}

func TestDiskBackedServerServesOfflineCorpus(t *testing.T) {
	// Records written by an offline `sweep -store` style run are served by
	// a later waycached process without any simulation.
	dir := t.TempDir()
	store, db, err := sweep.OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := sweep.New(sweep.Options{Workers: 4, Store: store})
	sw, err := eng.Run(context.Background(), testGrid())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := sw.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	store2, db2, err := sweep.OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	srv := New(Options{Store: store2, Workers: 4})
	ts := httptest.NewServer(srv)
	defer func() { ts.Close(); srv.Close() }()

	got, resp := fetch(t, ts.URL+"/api/v1/results")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results status = %d", resp.StatusCode)
	}
	if store2.Misses() != 0 {
		t.Errorf("serving the corpus simulated %d configs", store2.Misses())
	}
	// The corpus query sorts canonically; the offline grid order for this
	// grid happens to coincide (benchmarks and dims were listed sorted),
	// so the bytes must match exactly.
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("served corpus differs from offline sweep output")
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	var h map[string]string
	resp := getJSON(t, ts.URL+"/healthz", &h)
	if resp.StatusCode != http.StatusOK || h["status"] != "ok" {
		t.Errorf("healthz = %d %v", resp.StatusCode, h)
	}
}

// pollTerminal waits for any terminal state (done, failed, cancelled).
func pollTerminal(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		var st JobStatus
		getJSON(t, base+"/api/v1/jobs/"+id, &st)
		switch st.State {
		case "done", "failed", "cancelled":
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobStatus{}
}

// pollRunning waits for the job to leave the queue.
func pollRunning(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		var st JobStatus
		getJSON(t, base+"/api/v1/jobs/"+id, &st)
		if st.State != "queued" {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never started", id)
	return JobStatus{}
}

func post(t *testing.T, url string) (*http.Response, JobStatus) {
	t.Helper()
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var st JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	return resp, st
}

func del(t *testing.T, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE %s: %v", url, err)
	}
	resp.Body.Close()
	return resp
}

// bigGridJSON runs for seconds — long enough to observe and cancel a
// running job deterministically.
const bigGridJSON = `{
  "Name": "big",
  "Benchmarks": ["gcc", "swim", "li", "perl", "go", "vortex", "mgrid", "applu"],
  "DWays": [1, 2, 4, 8, 16],
  "Insts": 4000000
}`

// TestCancelReachesTerminalStateAndFreesBudget is the job-control
// acceptance test under the concurrent scheduler: two long jobs run at
// the same time under the shared budget, each must be cancellable to the
// terminal "cancelled" state, and cancelled work frees the budget for
// subsequent jobs.
func TestCancelReachesTerminalStateAndFreesBudget(t *testing.T) {
	srv := New(Options{Workers: 2})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })

	a := submit(t, ts.URL, bigGridJSON)
	if a.Name != "big" {
		t.Errorf("submitted name = %q, want big", a.Name)
	}
	b := submit(t, ts.URL, strings.Replace(bigGridJSON, `"big"`, `"big2"`, 1))

	// Both long jobs run concurrently — the sequential runner is gone.
	pollRunning(t, ts.URL, a.ID)
	pollRunning(t, ts.URL, b.ID)

	// Running jobs cannot be evicted or exported.
	if resp := del(t, ts.URL+"/api/v1/jobs/"+a.ID); resp.StatusCode != http.StatusConflict {
		t.Errorf("DELETE running job = %d, want 409", resp.StatusCode)
	}
	if _, resp := fetch(t, ts.URL+"/api/v1/jobs/"+a.ID+"/export"); resp.StatusCode != http.StatusConflict {
		t.Errorf("export of unfinished job = %d, want 409", resp.StatusCode)
	}

	// Cancelling running jobs unwinds each to "cancelled".
	for _, id := range []string{b.ID, a.ID} {
		if resp, _ := post(t, ts.URL+"/api/v1/jobs/"+id+"/cancel"); resp.StatusCode != http.StatusOK {
			t.Errorf("cancel running %s = %d, want 200", id, resp.StatusCode)
		}
	}
	for _, id := range []string{b.ID, a.ID} {
		if st := pollTerminal(t, ts.URL, id); st.State != "cancelled" {
			t.Errorf("job %s terminal state = %q, want cancelled", id, st.State)
		}
	}

	// The budget is free again: a new job completes.
	c := submit(t, ts.URL, testGridJSON)
	pollDone(t, ts.URL, c.ID)

	// Cancelling terminal jobs conflicts.
	if resp, _ := post(t, ts.URL+"/api/v1/jobs/"+a.ID+"/cancel"); resp.StatusCode != http.StatusConflict {
		t.Errorf("re-cancel terminal = %d, want 409", resp.StatusCode)
	}

	var stats struct {
		Jobs struct {
			Done      int `json:"done"`
			Cancelled int `json:"cancelled"`
		} `json:"jobs"`
	}
	getJSON(t, ts.URL+"/api/v1/stats", &stats)
	if stats.Jobs.Cancelled != 2 || stats.Jobs.Done != 1 {
		t.Errorf("stats jobs = %+v, want 2 cancelled 1 done", stats.Jobs)
	}

	// Terminal jobs evict; evicted jobs are gone.
	for _, id := range []string{a.ID, b.ID} {
		if resp := del(t, ts.URL+"/api/v1/jobs/"+id); resp.StatusCode != http.StatusOK {
			t.Errorf("DELETE terminal %s = %d, want 200", id, resp.StatusCode)
		}
		if _, resp := fetch(t, ts.URL+"/api/v1/jobs/"+id); resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET evicted %s = %d, want 404", id, resp.StatusCode)
		}
	}
	var jobs []JobStatus
	getJSON(t, ts.URL+"/api/v1/jobs", &jobs)
	if len(jobs) != 1 || jobs[0].ID != c.ID {
		t.Errorf("job list after eviction = %+v, want just %s", jobs, c.ID)
	}
	if resp := del(t, ts.URL+"/api/v1/jobs/job-999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown job = %d, want 404", resp.StatusCode)
	}
}

// TestNamedSubmissionIdempotent: re-submitting a live job's name returns
// the existing job instead of queueing duplicate work.
func TestNamedSubmissionIdempotent(t *testing.T) {
	srv := New(Options{Workers: 2})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })

	// "x" must still be live when its name is re-submitted, and jobs are
	// no longer serialized behind one runner — so "x" is itself a long
	// grid (cancelled at the end), not a quick one parked in a queue.
	longX := strings.Replace(bigGridJSON, `"big"`, `"x"`, 1)
	x1 := submit(t, ts.URL, longX)
	x2 := submit(t, ts.URL, longX)
	if x1.ID != x2.ID {
		t.Errorf("re-submitted name %q got a new job: %s then %s", "x", x1.ID, x2.ID)
	}
	y := submit(t, ts.URL, `{"Benchmarks":["gcc"],"Insts":5000,"name":"y"}`)
	if y.ID == x1.ID {
		t.Error("distinct names shared a job")
	}
	anon1 := submit(t, ts.URL, testGridJSON)
	anon2 := submit(t, ts.URL, testGridJSON)
	if anon1.ID == anon2.ID {
		t.Error("anonymous submissions deduplicated")
	}

	// A live name reused for DIFFERENT work must be refused, not answered
	// with the existing job's (wrong) results.
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json",
		strings.NewReader(`{"Benchmarks":["swim"],"Insts":9000,"name":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("name collision over different grid = %d, want 409", resp.StatusCode)
	}
	post(t, ts.URL+"/api/v1/jobs/"+x1.ID+"/cancel")
}

// TestExportRequiresNamedOrSpanJob: anonymous whole-grid jobs do not
// retain export payloads; asking for them is a clear conflict, not a
// silent empty stream. A name or a span makes a job exportable.
func TestExportRequiresNamedOrSpanJob(t *testing.T) {
	_, ts := newTestServer(t)
	st := submit(t, ts.URL, testGridJSON) // no name, no span
	pollDone(t, ts.URL, st.ID)
	body, resp := fetch(t, ts.URL+"/api/v1/jobs/"+st.ID+"/export")
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("anonymous export = %d, want 409", resp.StatusCode)
	}
	if !strings.Contains(string(body), "name") {
		t.Errorf("anonymous export error %q does not explain the name requirement", body)
	}

	for _, body := range []string{
		`{"Benchmarks":["gcc"],"Insts":5000,"name":"exp"}`,
		`{"Benchmarks":["gcc"],"Insts":5000,"span":"0-1"}`,
	} {
		st := submit(t, ts.URL, body)
		pollDone(t, ts.URL, st.ID)
		exp, resp := fetch(t, ts.URL+"/api/v1/jobs/"+st.ID+"/export")
		if resp.StatusCode != http.StatusOK || len(exp) == 0 {
			t.Errorf("export of %s = %d with %d bytes, want 200 and a stream", body, resp.StatusCode, len(exp))
		}
	}
}

// TestServerSurfacesTraceFallbacks: a waycached with a trace directory
// that covers nothing must report the walker fallbacks per job, not hide
// them.
func TestServerSurfacesTraceFallbacks(t *testing.T) {
	srv := New(Options{Workers: 4, TraceDir: t.TempDir()})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })

	st := submit(t, ts.URL, testGridJSON)
	st = pollDone(t, ts.URL, st.ID)
	if len(st.TraceFallbacks) != 2 {
		t.Fatalf("TraceFallbacks = %v, want gcc and swim", st.TraceFallbacks)
	}
	for _, b := range []string{"gcc", "swim"} {
		if st.TraceFallbacks[b] == "" {
			t.Errorf("benchmark %s has no fallback reason: %v", b, st.TraceFallbacks)
		}
	}
}

// TestExportPortableAcrossTraceHosts: a trace-replaying host must export
// payloads keyed and encoded under the submitted (walker) config — no
// host-local trace path may leak into the canonical bytes, and the
// payload's embedded config must produce exactly the key it is stored
// under, or an importing corpus would hold records that disagree with
// their own keys.
func TestExportPortableAcrossTraceHosts(t *testing.T) {
	dir := t.TempDir()
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	if err := prof.CaptureFile(filepath.Join(dir, "gcc"+trace.FileExt), 5_000); err != nil {
		t.Fatal(err)
	}
	srv := New(Options{Workers: 2, TraceDir: dir})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })

	st := submit(t, ts.URL, `{"Benchmarks":["gcc"],"Insts":5000,"name":"portable"}`)
	st = pollDone(t, ts.URL, st.ID)
	if len(st.TraceFallbacks) != 0 {
		t.Fatalf("capture did not replay: %v", st.TraceFallbacks)
	}

	exp, resp := fetch(t, ts.URL+"/api/v1/jobs/"+st.ID+"/export")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export status = %d", resp.StatusCode)
	}
	var e ExportEntry
	if err := json.Unmarshal(exp, &e); err != nil {
		t.Fatalf("decoding export entry: %v", err)
	}
	res, err := core.DecodeResult(e.Result)
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.Trace != "" {
		t.Errorf("host-local trace path %q leaked into the exported payload", res.Config.Trace)
	}
	key, ok := res.Config.Key()
	if !ok || key != e.Key {
		t.Errorf("payload's config keys to %q, stored under %q", key, e.Key)
	}
}
