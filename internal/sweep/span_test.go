package sweep

import (
	"testing"

	"waycache/internal/access"
)

// A shard "i/n" is the i-th of n contiguous pieces of an expanded grid;
// SpanOf is the one function that cuts it, as a [lo, hi) config range.
// These tests pin the partition contract the distributed coordinator's
// merge determinism and cmd/sweep -shard rest on.

// TestShardPartitionProperty: for every total and every piece count —
// including n that does not divide the total and n larger than the total —
// the spans SpanOf(total, i, n) for i = 0..n-1 tile [0, total) in order,
// and their sizes are near-equal with the leading spans taking the
// remainder.
func TestShardPartitionProperty(t *testing.T) {
	for _, total := range []int{0, 1, 2, 3, 5, 7, 8, 16, 17, 31} {
		for n := 1; n <= total+5; n++ {
			next := 0
			prevSize := -1
			for i := 0; i < n; i++ {
				lo, hi := SpanOf(total, i, n)
				if lo != next || hi < lo {
					t.Fatalf("total=%d n=%d i=%d: span [%d,%d) does not continue at %d", total, n, i, lo, hi, next)
				}
				size := hi - lo
				if want := total / n; size != want && size != want+1 {
					t.Fatalf("total=%d n=%d i=%d: span size %d, want %d or %d", total, n, i, size, want, want+1)
				}
				// Leading spans absorb the remainder: sizes never grow.
				if prevSize >= 0 && size > prevSize {
					t.Fatalf("total=%d n=%d i=%d: span grew from %d to %d", total, n, i, prevSize, size)
				}
				prevSize = size
				next = hi
			}
			if next != total {
				t.Fatalf("total=%d n=%d: spans end at %d", total, n, next)
			}
		}
	}
}

// TestShardMoreShardsThanConfigs: with n > total the trailing spans must
// be empty and in range, and the non-empty ones singletons.
func TestShardMoreShardsThanConfigs(t *testing.T) {
	const total, n = 3, 7
	for i := 0; i < n; i++ {
		lo, hi := SpanOf(total, i, n)
		want := 0
		if i < total {
			want = 1
		}
		if hi-lo != want || hi > total {
			t.Errorf("SpanOf(%d, %d, %d) = [%d,%d), want %d config(s) within the grid", total, i, n, lo, hi, want)
		}
	}
}

func TestShardInvalidArgs(t *testing.T) {
	for _, tc := range []struct{ total, i, n int }{
		{4, 0, 0}, {4, 0, -1}, {4, -1, 2}, {4, 2, 2}, {4, 5, 2}, {-1, 0, 1},
	} {
		if lo, hi := SpanOf(tc.total, tc.i, tc.n); lo != 0 || hi != 0 {
			t.Errorf("SpanOf(%d, %d, %d) = [%d,%d), want empty", tc.total, tc.i, tc.n, lo, hi)
		}
	}
}

// TestShardGridExpansion runs the property on a real grid expansion, the
// thing the coordinator actually slices: the spans' configs concatenate
// to the full expansion, key for key.
func TestShardGridExpansion(t *testing.T) {
	g := Grid{
		Benchmarks: []string{"gcc", "swim", "li"},
		DPolicies:  []access.DPolicy{access.DParallel, access.DSelDMWayPred},
		DWays:      []int{1, 2, 4},
		Insts:      1000,
	}
	cfgs := g.Configs()
	if len(cfgs) != g.Size() {
		t.Fatalf("Configs len %d != Size %d", len(cfgs), g.Size())
	}
	for _, n := range []int{1, 2, 3, 4, 5, 7, len(cfgs), len(cfgs) + 3} {
		var keys []string
		for i := 0; i < n; i++ {
			lo, hi := SpanOf(len(cfgs), i, n)
			for _, c := range cfgs[lo:hi] {
				k, _ := c.Key()
				keys = append(keys, k)
			}
		}
		if len(keys) != len(cfgs) {
			t.Fatalf("n=%d: concat %d configs, want %d", n, len(keys), len(cfgs))
		}
		for i, k := range keys {
			if want, _ := cfgs[i].Key(); k != want {
				t.Fatalf("n=%d: concat[%d] key %q != %q", n, i, k, want)
			}
		}
	}
}

func TestParseShard(t *testing.T) {
	i, n, err := ParseShard("2/5")
	if err != nil || i != 2 || n != 5 {
		t.Errorf("ParseShard(2/5) = %d,%d,%v", i, n, err)
	}
	for _, bad := range []string{"", "x", "1", "5/2", "2/2", "-1/2", "1/0", "1/-3"} {
		if _, _, err := ParseShard(bad); err == nil {
			t.Errorf("ParseShard(%q) did not error", bad)
		}
	}
}

func TestParseSpan(t *testing.T) {
	lo, hi, err := ParseSpan("128-256")
	if err != nil || lo != 128 || hi != 256 {
		t.Errorf("ParseSpan(128-256) = %d,%d,%v", lo, hi, err)
	}
	if got := FormatSpan(128, 256); got != "128-256" {
		t.Errorf("FormatSpan(128,256) = %q", got)
	}
	// FormatSpan output round-trips for every span SpanOf cuts.
	for i := 0; i < 3; i++ {
		lo, hi := SpanOf(10, i, 3)
		if l, h, err := ParseSpan(FormatSpan(lo, hi)); err != nil || l != lo || h != hi {
			t.Errorf("round trip of [%d,%d) = %d,%d,%v", lo, hi, l, h, err)
		}
	}
	for _, bad := range []string{"", "x", "5", "5-", "-1-3", "3-3", "4-2", "1/2"} {
		if _, _, err := ParseSpan(bad); err == nil {
			t.Errorf("ParseSpan(%q) did not error", bad)
		}
	}
}
