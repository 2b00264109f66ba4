package resultdb

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
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
// stretch of deleted records and superseded keys that an older build's
// tombstones left in the log, Scan delivers exactly what a serial
// GetEncoded and DecodeResult loop reads, in log order, before and after
// fresh appends.
func TestScanMatchesSerialReads(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := bigStore(t, db, 6)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Keep one key in four across a stretch of more than one chunk, so
	// dead records make the chunks there sparse.
	var recs [][]byte
	for i := len(keys) / 4; i < len(keys)/2; i++ {
		if i%4 != 0 {
			recs = append(recs, appendRecord(keys[i], nil))
		}
	}
	// Supersede a few keys with another result: they move to the log's end.
	other, err := core.EncodeResult(results(t)[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(keys); i += len(keys) / 5 {
		recs = append(recs, appendRecord(keys[i], nil), appendRecord(keys[i], other))
	}
	appendLog(t, dir, recs...)
	if db, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	want := serialScan(t, db)
	atProcs(t, func(t *testing.T) {
		if got := scanAll(t, db); !reflect.DeepEqual(got, want) {
			t.Fatalf("Scan delivered %d entries unlike the %d a serial read gives", len(got), len(want))
		}
	})
	// Records this build appends land after the replayed ones.
	for i, r := range results(t) {
		if err := db.Put(fmt.Sprintf("appended%d", i), r); err != nil {
			t.Fatal(err)
		}
	}
	want = serialScan(t, db)
	atProcs(t, func(t *testing.T) {
		if got := scanAll(t, db); !reflect.DeepEqual(got, want) {
			t.Fatal("Scan after appends to a replayed log differs from a serial read")
		}
	})
}

// TestScanRacesWriters: Puts of fresh keys run while Scans and Gets do.
// Every scan must deliver the keys stored before it in log order, then at
// most a prefix of the fresh ones, each with the result its key holds,
// and Get must read each fresh key a scan delivered the same way.
func TestScanRacesWriters(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	keys := bigStore(t, db, 3)
	rs := results(t)
	held := make(map[string]*core.Result, len(keys))
	for _, key := range keys {
		r, _, err := db.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		held[key] = r
	}
	fresh := make([]string, 2000)
	for i := range fresh {
		fresh[i] = fmt.Sprintf("fresh%05d", i)
		r := *rs[i%len(rs)]
		r.Config = r.Config.Canonical()
		held[fresh[i]] = &r
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, key := range fresh {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.Put(key, held[key]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	order := slices.Concat(keys, fresh)
	atProcs(t, func(t *testing.T) {
		for range 3 {
			got := scanAll(t, db)
			if len(got) < len(keys) {
				t.Fatalf("Scan delivered %d entries, fewer than the %d stored before it", len(got), len(keys))
			}
			for i, s := range got {
				if s.key != order[i] {
					t.Fatalf("entry %d is %q, want %q", i, s.key, order[i])
				}
				if !reflect.DeepEqual(s.res, held[s.key]) {
					t.Fatalf("Scan delivered a result %q never held", s.key)
				}
				if i >= len(keys) {
					if r, found, err := db.Get(s.key); err != nil || !found || !reflect.DeepEqual(r, held[s.key]) {
						t.Fatalf("Get(%q) during Puts: found=%v err=%v", s.key, found, err)
					}
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
