package coord

// One retry/timeout/backoff policy for every coordinator request.
//
// Before this file existed each request site rolled its own handling:
// submit retried immediately on any error, export stretched its timeout
// ad hoc, trace distribution gave up on the first failure. Every remote
// call now flows through retrier.do, which classifies the failure —
// deterministic job failures and auth/validation errors abort, transport
// faults and 5xx/429/408 retry — and sleeps a capped exponential backoff
// between attempts. Jitter is deterministic: it is derived from a
// splitmix64 hash of (seed, operation, attempt), so a seeded run retries
// at reproducible instants — the property the chaos tests lean on.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"time"
)

// RetryPolicy shapes the shared backoff schedule.
type RetryPolicy struct {
	// MaxAttempts bounds tries per request (default 4). The first try
	// counts: MaxAttempts 1 means no retries.
	MaxAttempts int
	// BaseDelay is the sleep after the first failure (default 100ms);
	// each further failure doubles it up to MaxDelay (default 5s). Up to
	// half the delay is replaced by deterministic jitter.
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
	return p
}

// delay returns the backoff before attempt n+1 (n is the just-failed
// attempt, 0-based): capped exponential with the top half jittered by a
// hash of (seed, op, n) so distinct operations desynchronize without
// nondeterminism.
func (p RetryPolicy) delay(seed uint64, op string, n int) time.Duration {
	d := p.BaseDelay << n
	if d <= 0 || d > p.MaxDelay { // <= 0 catches shift overflow
		d = p.MaxDelay
	}
	half := uint64(d / 2)
	if half == 0 {
		return d
	}
	return time.Duration(half + jitterHash(seed, op, n)%half + 1)
}

// jitterHash mixes (seed, op, attempt) through fnv64 + splitmix64. Pure
// function of its inputs: a re-run with the same seed backs off on the
// same schedule.
func jitterHash(seed uint64, op string, n int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", seed, op, n)
	return splitmix64(h.Sum64())
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// httpStatusError is a non-2xx response, classified for retry by code.
type httpStatusError struct {
	status int
	msg    string
}

func (e *httpStatusError) Error() string {
	if e.msg != "" {
		return fmt.Sprintf("http %d: %s", e.status, e.msg)
	}
	return fmt.Sprintf("http %d", e.status)
}

// retriable classifies an error: true means another attempt could
// plausibly succeed (transport fault, 5xx, throttling, timeout); false
// means the failure is a property of the request itself (deterministic
// job failure, auth, validation) and retrying anywhere is wasted work.
func retriable(err error) bool {
	var jf *jobFailedError
	if errors.As(err, &jf) {
		// The simulation itself failed; determinism means it fails the
		// same way on every host.
		return false
	}
	var hs *httpStatusError
	if errors.As(err, &hs) {
		switch {
		case hs.status >= 500:
			return true
		case hs.status == http.StatusTooManyRequests, hs.status == http.StatusRequestTimeout:
			return true
		default:
			return false // 4xx: auth, bad request, gone — a retry changes nothing
		}
	}
	// Everything else is transport-level (refused, reset, truncated body,
	// deadline): the canonical retriable class.
	return true
}

// retrier runs requests under one policy with seeded jitter.
type retrier struct {
	policy RetryPolicy
	seed   uint64
	sleep  func(context.Context, time.Duration) error // test seam
}

func newRetrier(p RetryPolicy, seed uint64) *retrier {
	return &retrier{policy: p.withDefaults(), seed: seed, sleep: sleepCtx}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// do runs fn under the retry policy. op names the operation for jitter
// derivation and error text ("submit host=a span=0-12"). fn sees the
// attempt number (0-based); its error is returned unwrapped when
// permanent or when attempts run out. Context cancellation between
// attempts stops immediately with the context's error.
//
//wclint:retry-core
func (r *retrier) do(ctx context.Context, op string, fn func(attempt int) error) error {
	var last error
	for attempt := 0; attempt < r.policy.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			if last != nil {
				return last
			}
			return err
		}
		err := fn(attempt)
		if err == nil {
			return nil
		}
		last = err
		if !retriable(err) || errors.Is(err, context.Canceled) {
			return err
		}
		if attempt == r.policy.MaxAttempts-1 {
			break
		}
		if serr := r.sleep(ctx, r.policy.delay(r.seed, op, attempt)); serr != nil {
			return last
		}
	}
	return fmt.Errorf("%s: giving up after %d attempts: %w", op, r.policy.MaxAttempts, last)
}

// transport sends every coordinator request — job control and trace
// distribution alike — with one client, one bearer token, one deadline
// per request class and one retry policy.
type transport struct {
	client     *http.Client
	token      string
	reqTimeout time.Duration
	retry      *retrier
}

// Request classes, as multiples of the request timeout: a control
// request (submit, poll, probe, job list) gets reqTimeout; a bulk one
// carries a whole span or trace (export, trace fetch and push) and gets
// ten times that, still bounded.
const (
	control = 1
	bulk    = 10
)

// payload is a request body the transport can resend from its start on
// every attempt.
type payload struct {
	data        io.ReaderAt
	size        int64
	contentType string
}

// newRequest builds one request, attaching the fleet's bearer token when
// it is authenticated. It is the only place the token is set.
func (t *transport) newRequest(ctx context.Context, method, url string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	if t.token != "" {
		req.Header.Set("Authorization", "Bearer "+t.token)
	}
	return req, nil
}

// send is the coordinator's transport funnel. Under the retry policy
// (op names the schedule and the give-up error), each attempt builds the
// request, bounds it by its class's budget, sends it, and turns a non-2xx
// answer into an *httpStatusError carrying the host's error body, so the
// policy can classify it. read, when non-nil, consumes a 2xx body inside
// the same attempt: a body cut off mid-read retries the whole request.
//
//wclint:retry-core
func (t *transport) send(ctx context.Context, op string, class int, method, url string,
	body *payload, read func(io.Reader) error) error {
	return t.retry.do(ctx, op, func(int) error {
		rctx, cancel := context.WithTimeout(ctx, time.Duration(class)*t.reqTimeout)
		defer cancel()
		req, err := t.newRequest(rctx, method, url, nil)
		if err != nil {
			return err
		}
		if body != nil {
			req.Body = io.NopCloser(io.NewSectionReader(body.data, 0, body.size))
			req.ContentLength = body.size
			req.Header.Set("Content-Type", body.contentType)
		}
		resp, err := t.client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			return &httpStatusError{status: resp.StatusCode, msg: string(bytes.TrimSpace(msg))}
		}
		if read == nil {
			return nil
		}
		return read(resp.Body)
	})
}

// decodeJSON is a send reader that decodes the body into v.
func decodeJSON(v any) func(io.Reader) error {
	return func(r io.Reader) error { return json.NewDecoder(r).Decode(v) }
}
