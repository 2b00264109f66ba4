package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// readStatusEvents consumes an SSE stream to EOF and returns every
// "status" event's decoded JobStatus, in order.
func readStatusEvents(t *testing.T, resp *http.Response) []JobStatus {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type = %q, want text/event-stream", ct)
	}
	var events []JobStatus
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue // event:/comment/blank lines
		}
		var st JobStatus
		if err := json.Unmarshal([]byte(data), &st); err != nil {
			t.Fatalf("bad event payload %q: %v", data, err)
		}
		events = append(events, st)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading event stream: %v", err)
	}
	return events
}

// TestJobEventsStreamToDone: the SSE stream carries the job from
// submission to the terminal "done" event and then closes — no polling.
func TestJobEventsStreamToDone(t *testing.T) {
	_, ts := newTestServer(t)
	st := submit(t, ts.URL, testGridJSON)

	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events := readStatusEvents(t, resp)
	if len(events) == 0 {
		t.Fatal("event stream closed without a single status event")
	}
	last := events[len(events)-1]
	if last.State != "done" {
		t.Errorf("final event state = %q, want done", last.State)
	}
	if last.Done != last.Total || last.Total == 0 {
		t.Errorf("final event progress = %d/%d, want full", last.Done, last.Total)
	}
	for _, e := range events {
		if e.ID != st.ID {
			t.Errorf("event for job %q on %q's stream", e.ID, st.ID)
		}
	}

	// A stream opened after the job finished delivers exactly the
	// terminal event and closes.
	resp, err = http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events = readStatusEvents(t, resp)
	if len(events) != 1 || events[0].State != "done" {
		t.Errorf("stream of finished job = %+v, want one done event", events)
	}
}

// TestJobEventsStreamCancelled: a watcher of a long job sees the
// terminal "cancelled" event when someone cancels it, then EOF.
func TestJobEventsStreamCancelled(t *testing.T) {
	srv := New(Options{Workers: 2})
	srv.eventHeartbeat = 20 * time.Millisecond
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })

	st := submit(t, ts.URL, bigGridJSON)
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []JobStatus, 1)
	go func() { done <- readStatusEvents(t, resp) }()

	pollRunning(t, ts.URL, st.ID)
	post(t, ts.URL+"/api/v1/jobs/"+st.ID+"/cancel")

	select {
	case events := <-done:
		if len(events) == 0 || events[len(events)-1].State != "cancelled" {
			t.Errorf("cancelled job's stream ended with %+v, want terminal cancelled event", events)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("event stream did not terminate after cancel")
	}
}

// TestJobEventsUnknownJob: streaming a nonexistent job is a plain 404,
// not a hung stream.
func TestJobEventsUnknownJob(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/api/v1/jobs/job-999/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("events for unknown job = %d, want 404", resp.StatusCode)
	}
}
