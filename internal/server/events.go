package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// GET /api/v1/jobs/{id}/events streams the job's status as Server-Sent
// Events: one "status" event immediately, one per progress or state
// change, and a final one carrying the terminal state ("done", "failed"
// or "cancelled") after which the stream closes. Comment-line heartbeats
// keep idle proxies from timing the connection out. Clients that cannot
// consume SSE poll GET /api/v1/jobs/{id} instead — the payloads are the
// identical JobStatus JSON.

func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, fmt.Errorf("response writer cannot stream; poll GET /api/v1/jobs/{id}"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	ticker := time.NewTicker(s.eventHeartbeat)
	defer ticker.Stop()

	for {
		// Snapshot status and the change channel together: a change that
		// lands after this snapshot closes the channel, so nothing can
		// slip between "send" and "wait".
		st, changed := j.statusWatch()
		if err := writeSSE(w, fl, st); err != nil {
			return
		}
		if st.Terminal() {
			return
		}
	idle:
		for {
			select {
			case <-changed:
				break idle
			case <-ticker.C:
				if _, err := fmt.Fprint(w, ": heartbeat\n\n"); err != nil {
					return
				}
				fl.Flush()
			case <-r.Context().Done():
				return
			}
		}
	}
}

func writeSSE(w http.ResponseWriter, fl http.Flusher, st JobStatus) error {
	data, err := json.Marshal(st)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "event: status\ndata: %s\n\n", data); err != nil {
		return err
	}
	fl.Flush()
	return nil
}
