package sweep

import (
	"reflect"
	"testing"

	"waycache/internal/access"
	"waycache/internal/core"
	"waycache/internal/pipeline"
	"waycache/internal/prng"
)

// scratchRecords is the corpus Records must equal: a full scan of the
// backend, sorted and with exact duplicates collapsed.
func scratchRecords(t *testing.T, b Backend) []Record {
	t.Helper()
	var recs []Record
	if err := b.(Scanner).Scan(func(_ string, res *core.Result) error {
		recs = append(recs, NewRecord(res))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	SortRecords(recs)
	var out []Record
	for _, r := range recs {
		if len(out) == 0 || r != out[len(out)-1] {
			out = append(out, r)
		}
	}
	return out
}

// firstDiff returns the index of the first record a and b disagree on.
func firstDiff(a, b []Record) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// corpusConfigs returns the configurations the interleavings draw from.
// Each base configuration comes in three forms: the live walker run, a
// replay of its capture, which flattens to the identical record, and a
// narrower core, which compares equal but differs in its results.
func corpusConfigs(t *testing.T) []core.Config {
	const insts = 3_000
	dir := t.TempDir()
	traces := map[string]string{}
	for _, b := range []string{"gcc", "swim"} {
		traces[b] = captureBench(t, dir, b, insts)
	}
	narrow := pipeline.DefaultConfig(insts)
	narrow.IssueWidth = 2
	var cfgs []core.Config
	for _, b := range []string{"gcc", "swim"} {
		for _, p := range []access.DPolicy{access.DParallel, access.DSelDMWayPred} {
			for _, ways := range []int{2, 4} {
				base := core.Config{Benchmark: b, DPolicy: p, DWays: ways, Insts: insts}
				replay, slim := base, base
				replay.Trace = traces[b]
				slim.Core = narrow
				cfgs = append(cfgs, base, replay, slim)
			}
		}
	}
	return cfgs
}

// TestStoreRecordsMatchesFullScan checks the incremental corpus against
// a from-scratch rebuild after random interleavings of simulations,
// recalls, queries and writes that go around the Store.
func TestStoreRecordsMatchesFullScan(t *testing.T) {
	cfgs := corpusConfigs(t)
	backends := map[string]func() Backend{
		"memory": func() Backend { return NewMemory() },
		"tiered": func() Backend { return Tiered{Front: NewMemory(), Back: NewMemory()} },
	}
	for name, newBackend := range backends {
		for seed := uint64(1); seed <= 4; seed++ {
			rng := prng.FromSeed(seed, "corpus", name)
			b := newBackend()
			store := NewStoreOn(b)
			type view struct{ got, want []Record }
			var views []view
			var wantRescans int64
			bypassed := false
			for step := 0; step < 60; step++ {
				cfg := cfgs[rng.Intn(len(cfgs))]
				switch op := rng.Intn(10); {
				case op < 6: // simulation, or recall once stored
					if _, err := store.Result(cfg); err != nil {
						t.Fatal(err)
					}
				case op < 7: // a write around the Store
					res, err := core.Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					key, _ := cfg.Key()
					before := b.Len()
					if err := b.Put(key, res); err != nil {
						t.Fatal(err)
					}
					bypassed = bypassed || b.Len() != before
				default:
					if wantRescans == 0 || bypassed {
						wantRescans++
						bypassed = false
					}
					got, err := store.Records()
					if err != nil {
						t.Fatal(err)
					}
					want := scratchRecords(t, b)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s seed %d step %d: Records differs from a full scan at record %d (%d records, want %d)",
							name, seed, step, firstDiff(got, want), len(got), len(want))
					}
					if _, rescans := store.CorpusStats(); rescans != wantRescans {
						t.Fatalf("%s seed %d step %d: %d rescans, want %d", name, seed, step, rescans, wantRescans)
					}
					views = append(views, view{got, append([]Record(nil), want...)})
				}
			}
			// Records hands out each corpus to readers that may still hold
			// it, so folding in later results must never touch it.
			for i, v := range views {
				if !reflect.DeepEqual(v.got, v.want) {
					t.Fatalf("%s seed %d: corpus %d was mutated after it was returned", name, seed, i)
				}
			}
		}
	}
}

// TestStoreRecordsCollapsesAndOrders pins the two ordering rules the
// interleavings exercise at random: a replay that flattens to a stored
// walker record collapses into it, and equal-comparing records keep their
// insertion order whether folded in or scanned.
func TestStoreRecordsCollapsesAndOrders(t *testing.T) {
	cfgs := corpusConfigs(t)
	walker, replay, slim := cfgs[0], cfgs[1], cfgs[2]
	b := NewMemory()
	store := NewStoreOn(b)
	if _, err := store.Records(); err != nil {
		t.Fatal(err)
	}
	var want []Record
	for _, cfg := range []core.Config{slim, walker, replay} {
		res, err := store.Result(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if cfg != replay {
			want = append(want, NewRecord(res))
		}
	}
	if CompareRecords(want[0], want[1]) != 0 || want[0] == want[1] {
		t.Fatalf("narrow and default cores must compare equal and differ, got %v", want)
	}
	got, err := store.Records()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("corpus %v, want the narrow then the default core's record, the replay collapsed", got)
	}
	if scan := scratchRecords(t, b); !reflect.DeepEqual(got, scan) {
		t.Fatalf("folded corpus %v, full scan %v", got, scan)
	}
	if recs, rescans := store.CorpusStats(); recs != 2 || rescans != 1 {
		t.Fatalf("CorpusStats = %d records, %d rescans; want 2, 1", recs, rescans)
	}
}
