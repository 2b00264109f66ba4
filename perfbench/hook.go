package main

import (
	"sync"
	"sync/atomic"
	"time"

	"waycache/internal/access"
	"waycache/internal/core"
	"waycache/internal/sweep"
)

// hookBackend observes a sweep.Store from outside, through the public
// Backend interface it stores results in. The store asks the backend
// before simulating and hands it the result right after, so a missed Get
// followed by a Put of the same key brackets exactly one core.Run. With a
// tracer the hook records those brackets as core.Run spans and, when layer
// names the backend (resultdb), the backend's own Get, Put and Scan calls
// too.
type hookBackend struct {
	inner sweep.Backend
	layer string // span prefix for the backend's own calls; "" records none
	tr    *tracer
	owner func(key string) (parent, op int) // the span and operation a key serves

	scans atomic.Int64 // Scan calls: the server's corpus rescans

	mu     sync.Mutex
	missAt map[string]time.Time
	runs   []simRun
}

// simRun is one simulation the hook saw: its policy, the instructions it
// committed and its host time.
type simRun struct {
	pol   access.DPolicy
	insts int64
	d     time.Duration
}

func newHook(inner sweep.Backend, layer string, tr *tracer, owner func(string) (int, int)) *hookBackend {
	return &hookBackend{inner: inner, layer: layer, tr: tr, owner: owner, missAt: make(map[string]time.Time)}
}

func (h *hookBackend) Get(key string) (*core.Result, bool, error) {
	start := time.Now()
	res, found, err := h.inner.Get(key)
	end := time.Now()
	if h.tr != nil {
		parent, op := h.owner(key)
		if h.layer != "" {
			h.tr.add(h.layer+".Get", start, end, parent, op)
		}
		if !found && err == nil {
			h.mu.Lock()
			h.missAt[key] = end
			h.mu.Unlock()
		}
	}
	return res, found, err
}

func (h *hookBackend) Put(key string, res *core.Result) error {
	start := time.Now()
	err := h.inner.Put(key, res)
	end := time.Now()
	if h.tr != nil {
		parent, op := h.owner(key)
		h.mu.Lock()
		if at, ok := h.missAt[key]; ok {
			delete(h.missAt, key)
			h.runs = append(h.runs, simRun{pol: res.Config.DPolicy, insts: res.Pipeline.Committed, d: start.Sub(at)})
			h.mu.Unlock()
			h.tr.add("core.Run", at, start, parent, op)
		} else {
			h.mu.Unlock()
		}
		if h.layer != "" {
			h.tr.add(h.layer+".Put", start, end, parent, op)
		}
	}
	return err
}

func (h *hookBackend) Len() int { return h.inner.Len() }

// Scan forwards enumeration, which the service's corpus queries need. The
// server scans its store exactly when its corpus cache is stale, so the
// count of calls is its count of rescans.
func (h *hookBackend) Scan(fn func(key string, res *core.Result) error) error {
	sc, ok := h.inner.(sweep.Scanner)
	if !ok {
		return nil
	}
	h.scans.Add(1)
	start := time.Now()
	err := sc.Scan(fn)
	if h.tr != nil && h.layer != "" {
		h.tr.add(h.layer+".Scan", start, time.Now(), -1, -1)
	}
	return err
}

// simRuns returns the simulations seen so far.
func (h *hookBackend) simRuns() []simRun {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]simRun(nil), h.runs...)
}
