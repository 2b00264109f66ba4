package main

import (
	"math"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{2, 2, 9, 2}, 2},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median(nil) = %v, want NaN", got)
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

// The tail percentile is the highest one, in tenths of a percent, that
// leaves at least ten samples beyond its nearest-rank position: one tenth
// higher leaves fewer than ten, and longer runs leave at least ten too.
func TestTailTenthsLeavesTenBeyond(t *testing.T) {
	for n := 11; n <= 5000; n++ {
		p := tailTenths(n)
		if b := beyond(n, p); b < 10 {
			t.Fatalf("n=%d: p%.1f leaves %d samples beyond, want >= 10", n, float64(p)/10, b)
		}
		if p < 1000 {
			if b := beyond(n, p+1); b >= 10 {
				t.Fatalf("n=%d: p%.1f is not the highest: p%.1f leaves %d beyond", n, float64(p)/10, float64(p+1)/10, b)
			}
		}
		for _, m := range []int{n + 1, 2 * n, 10 * n} {
			if b := beyond(m, p); b < 10 {
				t.Fatalf("n=%d: p%.1f leaves %d beyond in a run of %d", n, float64(p)/10, b, m)
			}
		}
	}
	for _, n := range []int{0, 1, 10} {
		if p := tailTenths(n); p != 0 {
			t.Errorf("tailTenths(%d) = %d, want 0: no tail has ten samples beyond", n, p)
		}
	}
	// The sweeps' minimum run: 264 operations, p96.2, ten beyond.
	if p, b := tailTenths(264), beyond(264, tailTenths(264)); p != 962 || b != 10 {
		t.Errorf("tailTenths(264) = %d with %d beyond, want 962 with 10", p, b)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 down to 1
	}
	for _, c := range []struct {
		tenths int
		want   float64
	}{{0, 1}, {10, 1}, {500, 50}, {962, 97}, {990, 99}, {1000, 100}} {
		if got := percentile(xs, c.tenths); got != c.want {
			t.Errorf("p%.1f = %v, want %v", float64(c.tenths)/10, got, c.want)
		}
	}
	if got := percentile(nil, 500); !math.IsNaN(got) {
		t.Errorf("percentile(nil) = %v, want NaN", got)
	}
}

func TestUnattributed(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: opRoot, Start: 0, End: 100 * ms, Parent: -1},
		{Name: "core.Run", Start: 10 * ms, End: 40 * ms, Parent: 0},
		{Name: "resultdb.Put", Start: 30 * ms, End: 60 * ms, Parent: 0}, // overlaps: counted once
		{Name: opRoot, Start: 120 * ms, End: 150 * ms, Parent: -1, Op: 1},
		{Name: "sweep.emit", Start: 110 * ms, End: 130 * ms, Parent: 3, Op: 1}, // clipped to its root
		{Name: "resultdb.Scan", Start: 0, End: 200 * ms, Parent: -1, Op: -1},   // no operation: ignored
	}
	// Layer spans cover 50 ms of the first operation and 10 ms of the
	// second; the phase had 200 ms on each of two lanes.
	if got, want := unattributed(spans, 200*ms, 2), 340.0/400; math.Abs(got-want) > 1e-12 {
		t.Errorf("unattributed = %v, want %v", got, want)
	}
}
