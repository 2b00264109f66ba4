package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"waycache/internal/sweep"
	"waycache/internal/trace"
	"waycache/internal/tracestore"
	"waycache/internal/workload"
)

// newTraceServer starts a server backed by a fresh content-addressed
// trace store.
func newTraceServer(t *testing.T) (*tracestore.Store, *httptest.Server) {
	t.Helper()
	store, err := tracestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{Workers: 4, TraceStore: store})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return store, ts
}

// captureBytes captures n instructions of bench and returns the .wct
// bytes with their content hash.
func captureBytes(t *testing.T, bench string, n int64) ([]byte, string) {
	t.Helper()
	p, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), bench+trace.FileExt)
	if err := p.CaptureFile(path, n); err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(body)
	return body, hex.EncodeToString(sum[:])
}

func putTrace(t *testing.T, base, hash string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, base+"/api/v1/traces/"+hash, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func TestTraceUploadDownloadRoundTrip(t *testing.T) {
	store, ts := newTraceServer(t)
	body, hash := captureBytes(t, "gcc", 1000)

	if resp := putTrace(t, ts.URL, hash, body); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first PUT status = %d, want 201", resp.StatusCode)
	}
	if !store.Has(hash) {
		t.Fatal("uploaded trace is not in the backing store")
	}
	// Re-uploading the same object is idempotent, not an error.
	if resp := putTrace(t, ts.URL, hash, body); resp.StatusCode != http.StatusOK {
		t.Errorf("repeat PUT status = %d, want 200", resp.StatusCode)
	}

	got, resp := fetch(t, ts.URL+"/api/v1/traces/"+hash)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET status = %d", resp.StatusCode)
	}
	if !bytes.Equal(got, body) {
		t.Error("downloaded trace differs from the uploaded bytes")
	}
	if cl := resp.Header.Get("Content-Length"); cl != fmt.Sprint(len(body)) {
		t.Errorf("Content-Length = %q, want %d", cl, len(body))
	}

	// HEAD is the coordinator's presence probe: status and length, no body.
	resp, err := http.Head(ts.URL + "/api/v1/traces/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("HEAD status = %d", resp.StatusCode)
	}
	if cl := resp.Header.Get("Content-Length"); cl != fmt.Sprint(len(body)) {
		t.Errorf("HEAD Content-Length = %q, want %d", cl, len(body))
	}

	var list struct{ Traces []string }
	getJSON(t, ts.URL+"/api/v1/traces", &list)
	if len(list.Traces) != 1 || list.Traces[0] != hash {
		t.Errorf("trace list = %v, want [%s]", list.Traces, hash)
	}
}

func TestTraceUploadRejectsBadContent(t *testing.T) {
	store, ts := newTraceServer(t)
	body, hash := captureBytes(t, "gcc", 1000)

	// Bytes that do not hash to the URL's name must not be stored.
	lying := strings.Repeat("ab", 32)
	if resp := putTrace(t, ts.URL, lying, body); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("mismatched PUT status = %d, want 400", resp.StatusCode)
	}
	if store.Has(lying) || store.Has(hash) {
		t.Error("a rejected upload left an object in the store")
	}

	// Bytes that are not a .wct file are refused even under their true hash.
	junk := []byte("not a trace at all")
	sum := sha256.Sum256(junk)
	if resp := putTrace(t, ts.URL, hex.EncodeToString(sum[:]), junk); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-trace PUT status = %d, want 400", resp.StatusCode)
	}

	if resp := putTrace(t, ts.URL, "nothex", body); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed-hash PUT status = %d, want 400", resp.StatusCode)
	}
	if _, resp := fetch(t, ts.URL+"/api/v1/traces/"+strings.Repeat("cd", 32)); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET of absent hash status = %d, want 404", resp.StatusCode)
	}
	if _, resp := fetch(t, ts.URL+"/api/v1/traces/nothex"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET of malformed hash status = %d, want 400", resp.StatusCode)
	}
}

func TestTraceEndpointsWithoutStore(t *testing.T) {
	_, ts := newTestServer(t)
	hash := strings.Repeat("ab", 32)
	if _, resp := fetch(t, ts.URL+"/api/v1/traces/"+hash); resp.StatusCode != http.StatusConflict {
		t.Errorf("GET without a store status = %d, want 409", resp.StatusCode)
	}
	if resp := putTrace(t, ts.URL, hash, []byte("x")); resp.StatusCode != http.StatusConflict {
		t.Errorf("PUT without a store status = %d, want 409", resp.StatusCode)
	}
	if _, resp := fetch(t, ts.URL+"/api/v1/traces"); resp.StatusCode != http.StatusConflict {
		t.Errorf("list without a store status = %d, want 409", resp.StatusCode)
	}
}

// TestSubmitTraceRefJob: a job whose grid maps a benchmark to an
// uploaded trace://<hash> replays it — no fallbacks — and serves records
// byte-identical to the walker job of the same grid.
func TestSubmitTraceRefJob(t *testing.T) {
	_, ts := newTraceServer(t)
	const insts = 5_000
	body, hash := captureBytes(t, "gcc", insts)
	if resp := putTrace(t, ts.URL, hash, body); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT status = %d", resp.StatusCode)
	}

	grid := fmt.Sprintf(`{"Benchmarks":["gcc"],"DWays":[2,4],"Insts":%d,"TraceRefs":{"gcc":%q}}`,
		insts, trace.FormatRef(hash))
	st := submit(t, ts.URL, grid)
	st = pollDone(t, ts.URL, st.ID)
	if len(st.TraceFallbacks) != 0 {
		t.Fatalf("trace:// job fell back to the walker: %v", st.TraceFallbacks)
	}
	got, resp := fetch(t, ts.URL+"/api/v1/jobs/"+st.ID+"/results")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results status = %d", resp.StatusCode)
	}

	eng := sweep.New(sweep.Options{Workers: 4})
	sw, err := eng.Run(context.Background(), sweep.Grid{
		Benchmarks: []string{"gcc"}, DWays: []int{2, 4}, Insts: insts,
	})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := sw.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("trace:// job records differ from the walker job's records")
	}

	// The replayed capture stays decoded in the shared arena, and stats
	// report its footprint.
	var stats struct {
		Arena struct {
			Files         int   `json:"files"`
			Insts         int64 `json:"insts"`
			ResidentBytes int64 `json:"residentBytes"`
		} `json:"arena"`
	}
	getJSON(t, ts.URL+"/api/v1/stats", &stats)
	a := trace.SharedArena()
	if stats.Arena.Files == 0 || stats.Arena.Insts < insts || stats.Arena.ResidentBytes == 0 {
		t.Errorf("stats arena = %+v after a trace:// job, want the capture resident", stats.Arena)
	}
	if stats.Arena.Files != a.Len() || stats.Arena.Insts != a.Resident() || stats.Arena.ResidentBytes != a.ResidentBytes() {
		t.Errorf("stats arena = %+v, SharedArena holds %d files, %d insts, %d bytes",
			stats.Arena, a.Len(), a.Resident(), a.ResidentBytes())
	}
}

// TestSubmitTraceRefValidation: malformed references 400 at submission,
// like unknown benchmarks — not minutes later inside the job.
func TestSubmitTraceRefValidation(t *testing.T) {
	_, ts := newTestServer(t)
	for _, grid := range []string{
		`{"Benchmarks":["gcc"],"TraceRefs":{"gcc":"not-a-ref"}}`,
		`{"Benchmarks":["gcc"],"TraceRefs":{"swim":"` + trace.FormatRef(strings.Repeat("ab", 32)) + `"}}`,
		`{"Benchmarks":["spec-mcf"]}`,
	} {
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(grid))
		if err != nil {
			t.Fatal(err)
		}
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit(%s) status = %d (%v), want 400", grid, resp.StatusCode, e)
		}
	}
	// An external benchmark WITH a reference is accepted (it 202s and the
	// job later fails only if the hash resolves nowhere).
	grid := `{"Benchmarks":["spec-mcf"],"TraceRefs":{"spec-mcf":"` + trace.FormatRef(strings.Repeat("ab", 32)) + `"},"Insts":1000}`
	st := submit(t, ts.URL, grid)
	if st.State != "queued" {
		t.Errorf("external trace-ref submission state = %q", st.State)
	}
}
