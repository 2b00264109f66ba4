package coord

// Decision tests for the straggler rescue: the interval arithmetic, the
// coverage test and the victim picker run on hand-built run values with a
// synthetic clock — no hosts, no sleeps.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"waycache/internal/core"
	"waycache/internal/server"
)

func TestGaps(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cover [][2]int
		want  [][2]int
	}{
		{"nothing covered", nil, [][2]int{{10, 20}}},
		{"disjoint", [][2]int{{12, 14}, {16, 17}}, [][2]int{{10, 12}, {14, 16}, {17, 20}}},
		{"unsorted, gaps still in order", [][2]int{{16, 17}, {12, 14}}, [][2]int{{10, 12}, {14, 16}, {17, 20}}},
		{"wholly outside", [][2]int{{0, 5}, {25, 30}, {5, 10}, {20, 21}}, [][2]int{{10, 20}}},
		{"straddling both ends", [][2]int{{5, 13}, {18, 30}}, [][2]int{{13, 18}}},
		{"overlapping", [][2]int{{11, 15}, {13, 18}}, [][2]int{{10, 11}, {18, 20}}},
		{"nested", [][2]int{{11, 19}, {12, 13}}, [][2]int{{10, 11}, {19, 20}}},
		{"touching", [][2]int{{10, 15}, {15, 20}}, nil},
		{"covering", [][2]int{{0, 30}}, nil},
	} {
		if got := gaps(10, 20, tc.cover); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: gaps(10, 20, %v) = %v, want %v", tc.name, tc.cover, got, tc.want)
		}
	}
}

func TestUnflownLocked(t *testing.T) {
	victim := &flight{lo: 0, hi: 8}
	rescuer := &flight{lo: 6, hi: 8, spec: true}
	abandoned := &flight{lo: 2, hi: 4, superseded: true}
	c := &run{
		pieces:  []piece{{lo: 0, hi: 2}},
		flights: []*flight{victim, rescuer, abandoned},
	}
	for _, tc := range []struct {
		name   string
		lo, hi int
		except *flight
		want   [][2]int
	}{
		{"the excepted flight and a superseded one cover nothing", 0, 8, victim, [][2]int{{2, 6}}},
		{"every live flight covers", 0, 8, nil, nil},
		{"another flight covers the excepted one's span", 6, 8, rescuer, nil},
		{"beyond every flight", 8, 12, nil, [][2]int{{8, 12}}},
	} {
		if got := c.unflownLocked(tc.lo, tc.hi, tc.except); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: unflownLocked(%d, %d) = %v, want %v", tc.name, tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestRescueVictimPicker(t *testing.T) {
	now := time.Unix(1_000, 0)
	stalled := now.Add(-2 * time.Second)
	for _, tc := range []struct {
		name   string
		f      *flight // the candidate, flights[0]
		others []*flight
		pieces []piece
		want   bool
	}{
		{"stalled flight on another host", &flight{lo: 0, hi: 8, host: "B", lastProgress: stalled}, nil, nil, true},
		{"on the asking host", &flight{lo: 0, hi: 8, host: "A", lastProgress: stalled}, nil, nil, false},
		{"a rescue flight", &flight{lo: 0, hi: 8, host: "B", spec: true, lastProgress: stalled}, nil, nil, false},
		{"being probed", &flight{lo: 0, hi: 8, host: "B", rescuing: true, lastProgress: stalled}, nil, nil, false},
		{"superseded", &flight{lo: 0, hi: 8, host: "B", superseded: true, lastProgress: stalled}, nil, nil, false},
		{"not stalled", &flight{lo: 0, hi: 8, host: "B", lastProgress: now.Add(-500 * time.Millisecond)}, nil, nil, false},
		{"fully flown by a rescue flight",
			&flight{lo: 0, hi: 8, host: "B", lastProgress: stalled},
			[]*flight{{lo: 0, hi: 8, host: "C", spec: true, lastProgress: now}}, nil, false},
		{"fully covered by a banked prefix and a rescue flight",
			&flight{lo: 0, hi: 8, host: "B", lastProgress: stalled},
			[]*flight{{lo: 3, hi: 8, host: "C", spec: true, lastProgress: now}},
			[]piece{{lo: 0, hi: 3}}, false},
		{"partly flown",
			&flight{lo: 0, hi: 8, host: "B", lastProgress: stalled},
			[]*flight{{lo: 4, hi: 8, host: "C", spec: true, lastProgress: now}}, nil, true},
		{"covered only by a superseded flight",
			&flight{lo: 0, hi: 8, host: "B", lastProgress: stalled},
			[]*flight{{lo: 0, hi: 8, host: "C", superseded: true, lastProgress: now}}, nil, true},
	} {
		c := &run{stall: time.Second, flights: append([]*flight{tc.f}, tc.others...), pieces: tc.pieces}
		if got := c.rescueVictimLocked("A", now); (got == tc.f) != tc.want || (got != nil && got != tc.f) {
			t.Errorf("%s: picked %+v, want the candidate picked = %v", tc.name, got, tc.want)
		}
	}

	older := &flight{lo: 8, hi: 16, host: "C", lastProgress: now.Add(-5 * time.Second)}
	newer := &flight{lo: 0, hi: 8, host: "B", lastProgress: stalled}
	c := &run{stall: time.Second, flights: []*flight{newer, older}}
	if got := c.rescueVictimLocked("A", now); got != older {
		t.Errorf("picked %+v, want the oldest stall %+v", got, older)
	}
}

// TestSupersededDuringSubmitIsAbandoned: a flight superseded while its
// submit is in flight has no job ID for land to cancel. runFlight must
// abandon the job itself once the submit returns, rather than follow a
// job nobody needs and hold its host's worker until it ends.
func TestSupersededDuringSubmitIsAbandoned(t *testing.T) {
	ng, err := testGrid().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	stub := &stubStraggler{t: t, g: ng} // its job runs until cancelled
	c := &run{
		transport: &transport{client: &http.Client{}, reqTimeout: time.Second,
			retry: newRetrier(RetryPolicy{MaxAttempts: 1}, 1)},
		grid: ng, name: "t-superseded-submit", poll: 10 * time.Millisecond,
		logf: t.Logf, wake: make(chan struct{}),
	}
	f := &flight{lo: 0, hi: 4, unit: &unit{lo: 0, hi: 4, attempts: 1}}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/jobs") {
			c.mu.Lock()
			f.superseded = true // a rival landed before this reply
			c.mu.Unlock()
		}
		stub.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	f.host = ts.URL

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, _, err := c.runFlight(ctx, f); !errors.Is(err, errSuperseded) {
		t.Fatalf("runFlight = %v, want errSuperseded before the deadline", err)
	}
	stub.mu.Lock()
	defer stub.mu.Unlock()
	if stub.cancels == 0 {
		t.Error("the superseded job was never cancelled")
	}
}

// TestSupersededOnFrozenHostIsAbandonedOnce: land supersedes a flight
// that already has its job ID and abandons that job itself. The host
// stops serving the job as the cancel arrives, so the flight's own
// follower fails next; it must not abandon the job a second time, which
// would spend another abandon budget and warn twice. A frozen host (503)
// is still retired, so its worker stops taking work; a host that answers
// 404 only evicted the job, and stays active.
func TestSupersededOnFrozenHostIsAbandonedOnce(t *testing.T) {
	for _, tc := range []struct {
		name   string
		status int
		state  string
	}{
		{"frozen", http.StatusServiceUnavailable, hostRetired},
		{"evicted", http.StatusNotFound, hostActive},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ng, err := testGrid().Normalize()
			if err != nil {
				t.Fatal(err)
			}
			stub := &stubStraggler{t: t, g: ng} // its job runs until cancelled
			victim := &flight{lo: 0, hi: 4, unit: &unit{lo: 0, hi: 4, attempts: 1}}
			rival := &flight{lo: 0, hi: 4, unit: victim.unit, spec: true, host: "rival"}
			var cancels atomic.Int32
			var gone atomic.Bool
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if strings.HasSuffix(r.URL.Path, "/cancel") {
					cancels.Add(1)
					gone.Store(true)
				}
				if gone.Load() {
					http.Error(w, tc.name, tc.status)
					return
				}
				stub.ServeHTTP(w, r)
			}))
			t.Cleanup(ts.Close)
			victim.host = ts.URL
			c := &run{
				transport: &transport{client: &http.Client{}, reqTimeout: time.Second,
					retry: newRetrier(RetryPolicy{MaxAttempts: 1}, 1)},
				// total exceeds the victim's span, so the run is not
				// finished when the victim fails and fly routes the failure.
				grid: ng, name: "t-superseded-" + tc.name, total: 8, poll: 10 * time.Millisecond,
				logf: t.Logf, wake: make(chan struct{}), done: make(chan struct{}),
				hosts: map[string]*hostState{
					ts.URL:  {url: ts.URL, state: hostActive, workerLive: true},
					"rival": {url: "rival", state: hostActive, workerLive: true},
				},
				flights: []*flight{victim, rival},
			}

			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			submitted := c.wake // runFlight bumps it once the job ID is set
			flown := make(chan struct{})
			go func() {
				defer close(flown)
				c.fly(ctx, victim)
			}()
			select {
			case <-submitted:
			case <-ctx.Done():
				t.Fatal("the victim's job was never submitted")
			}
			c.land(rival, flightOutput{
				entries: make([]server.ExportEntry, 4), results: make([]*core.Result, 4),
			}, nil)
			<-flown
			if n := cancels.Load(); n != 1 {
				t.Errorf("the superseded job was cancelled %d times, want once", n)
			}
			c.mu.Lock()
			defer c.mu.Unlock()
			if len(c.warnings) != 1 {
				t.Errorf("warnings %+v, want exactly one for the superseded job", c.warnings)
			}
			if got := c.hosts[ts.URL].state; got != tc.state {
				t.Errorf("victim host is %s, want %s", got, tc.state)
			}
			if len(c.queue) != 0 || len(c.flights) != 0 {
				t.Errorf("queue %v, flights %v: a covered span must leave nothing behind", c.queue, c.flights)
			}
		})
	}
}
