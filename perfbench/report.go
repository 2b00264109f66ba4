package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a run prints: whether every output checked out,
// the operations attempted and failed, and the metrics of the run's mode
// (end-to-end untraced, per-layer traced).
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// print writes a human-readable table to w, then the report as one JSON
// line — the line the benchmark's callers parse.
func (r *report) print(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "attempted %d, failed %d\n", r.Attempted, r.Failed)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// endToEnd holds what an untraced run measured; every workload reports the
// same six metrics from it.
type endToEnd struct {
	setup     []time.Duration // one per set-up repetition
	phase     time.Duration   // the timed phase
	windows   []window        // the phase, cut into windows of equal work
	opLatency []float64       // per-operation latency, ms
	tail      int             // tail percentile of opLatency, tenths of a percent
}

// window is one slice of a timed phase that does the same work as every
// other: a sweep round, a block of the service schedule. Throughputs are
// the median over windows, so a burst of host noise moves one window, not
// the metric.
type window struct {
	configs  int           // configurations answered
	simInsts int64         // instructions actually simulated
	d        time.Duration // host time the window took
}

func (e *endToEnd) fill(r *report) {
	setup := make([]float64, len(e.setup))
	for i, d := range e.setup {
		setup[i] = d.Seconds()
	}
	configs := make([]float64, len(e.windows))
	insts := make([]float64, len(e.windows))
	for i, w := range e.windows {
		configs[i] = float64(w.configs) / w.d.Seconds()
		insts[i] = float64(w.simInsts) / w.d.Seconds() / 1e6
	}
	r.set("setup_s", "s", median(setup))
	r.set("configs_per_s", "1/s", median(configs))
	r.set("sim_minst_per_s", "Minst/s", median(insts))
	r.set("op_p50_ms", "ms", percentile(e.opLatency, 500))
	r.set("op_tail_ms", "ms", percentile(e.opLatency, e.tail))
	r.set("peak_rss_mb", "MB", peakRSSMB())
}

// describe prints the sample counts behind the timing metrics, so a reader
// knows which percentile op_tail_ms is and how many samples lie beyond it.
func (e *endToEnd) describe(w io.Writer) {
	n := len(e.opLatency)
	fmt.Fprintf(w, "phase %.3fs, %d operations in %d windows; op_tail_ms is p%.1f with %d samples beyond; setup_s is the median of %d\n",
		e.phase.Seconds(), n, len(e.windows), float64(e.tail)/10, beyond(n, e.tail), len(e.setup))
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
