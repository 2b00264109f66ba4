package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func authedGet(t *testing.T, url, token string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func TestParseAuthTokens(t *testing.T) {
	tokens, err := ParseAuthTokens("alice=s3cret, bob=hunter2")
	if err != nil {
		t.Fatal(err)
	}
	if tokens["s3cret"] != "alice" || tokens["hunter2"] != "bob" {
		t.Errorf("parsed tokens = %v", tokens)
	}
	for _, bad := range []string{"", "justatoken", "=nope", "name=", "a=x,b=x"} {
		if _, err := ParseAuthTokens(bad); err == nil {
			t.Errorf("ParseAuthTokens(%q) accepted", bad)
		}
	}
}

// TestBearerAuth: with tokens configured every API endpoint requires a
// known bearer token; /healthz stays open for liveness probes.
func TestBearerAuth(t *testing.T) {
	tokens, err := ParseAuthTokens("alice=s3cret,bob=hunter2")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{Workers: 2, AuthTokens: tokens})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })

	if resp := authedGet(t, ts.URL+"/healthz", ""); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz without token = %d, want 200 (liveness must stay open)", resp.StatusCode)
	}
	resp := authedGet(t, ts.URL+"/api/v1/jobs", "")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("no token = %d, want 401", resp.StatusCode)
	}
	if h := resp.Header.Get("WWW-Authenticate"); !strings.Contains(h, "Bearer") {
		t.Errorf("401 WWW-Authenticate = %q, want a Bearer challenge", h)
	}
	if resp := authedGet(t, ts.URL+"/api/v1/jobs", "wrong"); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("unknown token = %d, want 401", resp.StatusCode)
	}
	for _, token := range []string{"s3cret", "hunter2"} {
		if resp := authedGet(t, ts.URL+"/api/v1/jobs", token); resp.StatusCode != http.StatusOK {
			t.Errorf("token %q = %d, want 200", token, resp.StatusCode)
		}
	}

	// Submissions carry the token too; the job runs under that identity.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/jobs", strings.NewReader(testGridJSON))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer s3cret")
	post, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusAccepted {
		t.Errorf("authed submit = %d, want 202", post.StatusCode)
	}
}

// TestPprofBehindAuth: the /debug/pprof/ routes ride the same wrapper as
// the API — profiles of an authenticated service must not leak openly.
func TestPprofBehindAuth(t *testing.T) {
	tokens, err := ParseAuthTokens("alice=s3cret")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{Workers: 2, AuthTokens: tokens})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })

	if resp := authedGet(t, ts.URL+"/debug/pprof/", ""); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("pprof index without token = %d, want 401", resp.StatusCode)
	}
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap", "/debug/pprof/goroutine"} {
		if resp := authedGet(t, ts.URL+path, "s3cret"); resp.StatusCode != http.StatusOK {
			t.Errorf("authed %s = %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestRateLimiter exercises the token bucket directly with synthetic
// clocks: burst, deny, refill, and per-identity isolation.
func TestRateLimiter(t *testing.T) {
	l := newRateLimiter(1, 2) // 1 req/s, burst 2
	now := time.Unix(1000, 0)
	for i := 0; i < 2; i++ {
		if ok, _ := l.allow("a", now); !ok {
			t.Fatalf("request %d within burst denied", i)
		}
	}
	ok, retry := l.allow("a", now)
	if ok {
		t.Fatal("request beyond burst allowed")
	}
	if retry <= 0 || retry > 2*time.Second {
		t.Errorf("retryAfter = %v, want (0, 2s]", retry)
	}
	// Another identity has its own bucket.
	if ok, _ := l.allow("b", now); !ok {
		t.Error("fresh identity denied by a's exhausted bucket")
	}
	// One second refills one token.
	if ok, _ := l.allow("a", now.Add(time.Second)); !ok {
		t.Error("refilled bucket still denied")
	}
}

// TestRateLimitHTTP: an exhausted client gets 429 with Retry-After while
// other clients keep working, in token mode.
func TestRateLimitHTTP(t *testing.T) {
	tokens, err := ParseAuthTokens("alice=s3cret,bob=hunter2")
	if err != nil {
		t.Fatal(err)
	}
	// Refill so slow the burst is effectively the whole allowance.
	srv := New(Options{Workers: 2, AuthTokens: tokens, RatePerSec: 0.001, RateBurst: 3})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })

	var got429 *http.Response
	for i := 0; i < 4; i++ {
		resp := authedGet(t, ts.URL+"/api/v1/jobs", "s3cret")
		if resp.StatusCode == http.StatusTooManyRequests {
			got429 = resp
			break
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d = %d", i, resp.StatusCode)
		}
	}
	if got429 == nil {
		t.Fatal("burst of 3 never produced a 429 within 4 requests")
	}
	if got429.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	if resp := authedGet(t, ts.URL+"/api/v1/jobs", "hunter2"); resp.StatusCode != http.StatusOK {
		t.Errorf("bob throttled by alice's bucket: %d", resp.StatusCode)
	}
	if resp := authedGet(t, ts.URL+"/healthz", ""); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz rate-limited: %d", resp.StatusCode)
	}
}
