package resultdb

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"waycache/internal/core"
)

// scanned is one result Scan delivered.
type scanned struct {
	key string
	res *core.Result
}

// scanAll collects everything Scan delivers, failing the test on an error.
func scanAll(t *testing.T, db *DB) []scanned {
	t.Helper()
	var out []scanned
	if err := db.Scan(func(key string, res *core.Result) error {
		out = append(out, scanned{key, res})
		return nil
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return out
}

// serialScan is what Scan must deliver: each key in log order, read with
// GetEncoded and decoded on its own.
func serialScan(t *testing.T, db *DB) []scanned {
	t.Helper()
	var out []scanned
	for _, key := range db.Keys() {
		payload, found, err := db.GetEncoded(key)
		if err != nil || !found {
			t.Fatalf("GetEncoded(%q): found=%v err=%v", key, found, err)
		}
		res, err := core.DecodeResult(payload)
		if err != nil {
			t.Fatalf("DecodeResult(%q): %v", key, err)
		}
		out = append(out, scanned{key, res})
	}
	return out
}

// bigStore fills db with copies of the test results under distinct keys
// until the payloads span at least chunks Scan chunks, and returns the
// keys in log order.
func bigStore(t *testing.T, db *DB, chunks int) []string {
	t.Helper()
	var payloads [][]byte
	for _, r := range results(t) {
		p, err := core.EncodeResult(r)
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, p)
	}
	var keys []string
	for total := 0; total < chunks*scanChunkBytes; {
		p := payloads[len(keys)%len(payloads)]
		key := fmt.Sprintf("k%05d", len(keys))
		if err := db.PutEncoded(key, p); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
		total += len(p)
	}
	return keys
}

// atProcs runs f under GOMAXPROCS 1 (no workers) and 4 (workers).
func atProcs(t *testing.T, f func(t *testing.T)) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f(t)
		})
	}
}

// TestScanMatchesSerialReads: over a store of many chunks, with a sparse
// stretch of deleted records and superseded keys, Scan delivers exactly
// what a serial GetEncoded and DecodeResult loop reads, in log order.
func TestScanMatchesSerialReads(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	keys := bigStore(t, db, 6)
	// Keep one key in four across a stretch of more than one chunk, so
	// garbage makes the chunks there sparse.
	for i := len(keys) / 4; i < len(keys)/2; i++ {
		if i%4 != 0 {
			if _, err := db.Delete(keys[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Supersede a few keys with another result: they move to the log's end.
	other := results(t)[0]
	for i := 1; i < len(keys); i += len(keys) / 5 {
		if _, err := db.Delete(keys[i]); err != nil {
			t.Fatal(err)
		}
		if err := db.Put(keys[i], other); err != nil {
			t.Fatal(err)
		}
	}
	want := serialScan(t, db)
	atProcs(t, func(t *testing.T) {
		if got := scanAll(t, db); !reflect.DeepEqual(got, want) {
			t.Fatalf("Scan delivered %d entries unlike the %d a serial read gives", len(got), len(want))
		}
	})
	if _, err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	atProcs(t, func(t *testing.T) {
		if got := scanAll(t, db); !reflect.DeepEqual(got, want) {
			t.Fatal("Scan after Compact differs from the serial read before it")
		}
	})
}

// TestScanRacesWriters: Put, Delete and Compact run while Scans do.
// Every delivered result must be one its key held at some point, and no
// key may be delivered twice.
func TestScanRacesWriters(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	keys := bigStore(t, db, 3)
	rs := results(t)
	held := make(map[string][]*core.Result, len(keys)) // every value a key can hold
	for i, key := range keys {
		r, _, err := db.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		alt := *rs[(i+1)%len(rs)]
		alt.Config = alt.Config.Canonical()
		held[key] = []*core.Result{r, &alt}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			key := keys[(n*7919)%len(keys)]
			if _, err := db.Delete(key); err != nil {
				t.Error(err)
				return
			}
			if n%2 == 0 {
				if err := db.Put(key, held[key][n/2%2]); err != nil {
					t.Error(err)
					return
				}
			}
			if n%50 == 0 {
				if _, err := db.Compact(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	atProcs(t, func(t *testing.T) {
		for range 3 {
			seen := map[string]bool{}
			for _, s := range scanAll(t, db) {
				if seen[s.key] {
					t.Fatalf("Scan delivered %q twice", s.key)
				}
				seen[s.key] = true
				if ok := reflect.DeepEqual(s.res, held[s.key][0]) || reflect.DeepEqual(s.res, held[s.key][1]); !ok {
					t.Fatalf("Scan delivered a result %q never held", s.key)
				}
			}
		}
	})
	close(stop)
	wg.Wait()
}

// TestScanStopsAtUndecodablePayload: a record whose checksum holds but
// whose payload does not decode ends the scan at that entry, with the
// error Get reports for it, after fn has seen exactly the entries before.
func TestScanStopsAtUndecodablePayload(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	keys := bigStore(t, db, 3)
	bad := []byte(`{"config":`)
	_, decodeErr := core.DecodeResult(bad)
	if decodeErr == nil {
		t.Fatal("the bad payload decodes")
	}
	// putPayload skips PutEncoded's decode check; a good record follows.
	if err := db.putPayload("bad", bad); err != nil {
		t.Fatal(err)
	}
	if err := db.Put("after", results(t)[0]); err != nil {
		t.Fatal(err)
	}
	_, _, getErr := db.Get("bad")
	wantErr := "resultdb: " + decodeErr.Error()
	if getErr == nil || getErr.Error() != wantErr {
		t.Fatalf("Get(bad) = %v, want %q", getErr, wantErr)
	}
	atProcs(t, func(t *testing.T) {
		var got []string
		err := db.Scan(func(key string, _ *core.Result) error {
			got = append(got, key)
			return nil
		})
		if err == nil || err.Error() != wantErr {
			t.Fatalf("Scan = %v, want %q", err, wantErr)
		}
		if !reflect.DeepEqual(got, keys) {
			t.Fatalf("fn saw %d entries, want the %d before the bad one", len(got), len(keys))
		}
	})
}

// TestScanStopsOnFnError: fn's error ends the scan at once, is returned
// as is, and leaves no goroutine behind.
func TestScanStopsOnFnError(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	keys := bigStore(t, db, 4)
	stopAt := len(keys) / 3
	errStop := errors.New("stop here")
	atProcs(t, func(t *testing.T) {
		base := runtime.NumGoroutine()
		calls := 0
		err := db.Scan(func(key string, _ *core.Result) error {
			if key != keys[calls] {
				t.Fatalf("call %d got %q, want %q", calls, key, keys[calls])
			}
			calls++
			if calls == stopAt+1 {
				return errStop
			}
			return nil
		})
		if err != errStop {
			t.Fatalf("Scan = %v, want fn's error as is", err)
		}
		if calls != stopAt+1 {
			t.Fatalf("fn ran %d times, want %d", calls, stopAt+1)
		}
		// A worker leaves the count just after Scan's wait releases.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("%d goroutines after Scan, %d before", n, base)
		}
	})
}
