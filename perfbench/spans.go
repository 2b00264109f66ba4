package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of the program. Parent is the index of the enclosing
// span (-1 for an operation's root) and Op the operation it served; both
// are -1 for a call no single operation caused (a server's corpus rescan).
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a finished span and returns its index (-1 on a nil tracer).
func (t *tracer) add(name string, start, end time.Time, parent, op int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Start: start.Sub(t.origin), End: end.Sub(t.origin),
		Parent: parent, Op: op,
	})
	return len(t.spans) - 1
}

// reserve records a span whose end is not known yet, so children can name
// it as their parent; finish closes it.
func (t *tracer) reserve(name string, start time.Time, parent, op int) int {
	return t.add(name, start, start, parent, op)
}

func (t *tracer) finish(id int, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = end.Sub(t.origin)
	t.mu.Unlock()
}

// layerTime is the self time and call count of every span of one name.
type layerTime struct {
	self  time.Duration
	total time.Duration
	count int
}

// selfTimes derives each span name's self time: its duration minus the
// part of that interval its children cover (the union of the children's
// intervals, so concurrent children are not counted twice).
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for i, s := range spans {
		d := s.End - s.Start
		lt := out[s.Name]
		lt.total += d
		lt.self += d - covered(s, children[i])
		lt.count++
		out[s.Name] = lt
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum time.Duration
	var curLo, curHi time.Duration
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			sum += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		sum += curHi - curLo
	}
	return sum
}

// opRoot names the span of one benchmark operation (a sweep round, a
// service request cycle). It is the harness's own span, not a layer's:
// its children are the layer calls the operation made.
const opRoot = "harness.op"

// unattributed is the share of the timed phase that no layer span accounts
// for: the phase's host time on each of its lanes (the concurrent clients
// or workers driving it), less the time the layer spans of every operation
// cover, over the phase's host time. What remains is the harness's own work
// between and around layer calls, and lanes left idle.
func unattributed(spans []span, phase time.Duration, lanes int) float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var attributed time.Duration
	for i, s := range spans {
		if s.Name == opRoot {
			attributed += covered(s, children[i])
		}
	}
	total := phase * time.Duration(lanes)
	return float64(total-attributed) / float64(total)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
