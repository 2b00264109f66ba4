package resultdb

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"waycache/internal/access"
	"waycache/internal/core"
)

// testResults simulates a few tiny distinct runs once for the whole suite.
var testResults []*core.Result

func results(t testing.TB) []*core.Result {
	t.Helper()
	if testResults == nil {
		for _, cfg := range []core.Config{
			{Benchmark: "gcc", Insts: 5_000},
			{Benchmark: "gcc", Insts: 5_000, DPolicy: access.DSelDMWayPred},
			{Benchmark: "swim", Insts: 5_000, DPolicy: access.DSequential},
		} {
			r, err := core.Run(cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			testResults = append(testResults, r)
		}
	}
	return testResults
}

func keyOf(t testing.TB, r *core.Result) string {
	t.Helper()
	key, ok := r.Config.Key()
	if !ok {
		t.Fatalf("config has no key: %+v", r.Config)
	}
	return key
}

func fill(t *testing.T, db *DB) []string {
	t.Helper()
	var keys []string
	for _, r := range results(t) {
		key := keyOf(t, r)
		if err := db.Put(key, r); err != nil {
			t.Fatalf("Put: %v", err)
		}
		keys = append(keys, key)
	}
	return keys
}

func TestPutGetRoundTrip(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()

	keys := fill(t, db)
	if db.Len() != len(keys) {
		t.Errorf("Len = %d, want %d", db.Len(), len(keys))
	}
	for i, r := range results(t) {
		got, found, err := db.Get(keys[i])
		if err != nil || !found {
			t.Fatalf("Get(%q): found=%v err=%v", keys[i], found, err)
		}
		want := *r
		want.Config = want.Config.Canonical()
		if !reflect.DeepEqual(got, &want) {
			t.Errorf("Get(%q) differs from stored result", keys[i])
		}
	}
	if _, found, err := db.Get("no-such-key"); found || err != nil {
		t.Errorf("Get(missing) = found=%v err=%v, want false,nil", found, err)
	}
}

// appendLog appends raw records to the closed store's log in dir, the way
// an older build's writes would have landed.
func appendLog(t testing.TB, dir string, recs ...[]byte) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, LogName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, rec := range recs {
		if _, err := f.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
}

// oldIndexName is the sidecar index snapshot older builds wrote beside the
// log on Close. This build neither reads nor writes it.
const oldIndexName = "results.idx"

// reopenAndCheck opens the store in dir and checks it holds exactly keys,
// in log order, each readable. The caller closes the returned DB.
func reopenAndCheck(t *testing.T, dir, label string, keys []string) *DB {
	t.Helper()
	db, err := Open(dir)
	if err != nil {
		t.Fatalf("%s: Open: %v", label, err)
	}
	if db.Len() != len(keys) {
		t.Errorf("%s: Len = %d, want %d", label, db.Len(), len(keys))
	}
	if got := db.Keys(); !reflect.DeepEqual(got, keys) {
		t.Errorf("%s: Keys = %v, want %v", label, got, keys)
	}
	for _, key := range keys {
		if _, found, err := db.Get(key); !found || err != nil {
			t.Errorf("%s: Get(%q): found=%v err=%v", label, key, found, err)
		}
	}
	return db
}

// checkOnlyLog fails unless the store directory holds the log and, when
// leftover is set, that file an older build left there: nothing else is
// ever written.
func checkOnlyLog(t *testing.T, dir, leftover string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	want := []string{LogName}
	if leftover != "" {
		want = append(want, leftover)
		sort.Strings(want) // ReadDir returns names sorted
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("store directory holds %v, want %v", names, want)
	}
}

// TestReopenWithAndWithoutIndex: after a clean Close the log alone reopens
// the store with every key in log order; Close writes no index, and an
// index file an older build left beside the log, valid-looking or corrupt,
// is ignored rather than trusted.
func TestReopenWithAndWithoutIndex(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	keys := fill(t, db)
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	checkOnlyLog(t, dir, "")

	reopenAndCheck(t, dir, "without index", keys).Close()
	checkOnlyLog(t, dir, "")

	// An older build's index that covers none of the records: Open must
	// not take its (empty) key set over the log's.
	if err := os.WriteFile(filepath.Join(dir, oldIndexName), []byte("WCRI\x01\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	reopenAndCheck(t, dir, "with index", keys).Close()

	if err := os.WriteFile(filepath.Join(dir, oldIndexName), []byte("WCRIgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	reopenAndCheck(t, dir, "corrupt index", keys).Close()
	checkOnlyLog(t, dir, oldIndexName)
}

// TestStaleIndexCatchesUp: a crash with no Close after more Puts loses
// nothing; Open scans the whole log, whatever index an older build left
// from an earlier Close.
func TestStaleIndexCatchesUp(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	first := results(t)[0]
	if err := db.Put(keyOf(t, first), first); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// The stale snapshot an older build's Close would have left.
	if err := os.WriteFile(filepath.Join(dir, oldIndexName), []byte("WCRI\x01\x00"), 0o644); err != nil {
		t.Fatal(err)
	}

	db = reopenAndCheck(t, dir, "after Close", []string{keyOf(t, first)})
	keys := fill(t, db) // the first key deduplicates; two fresh records
	db.f.Close()        // a crash: no Close

	db = reopenAndCheck(t, dir, "after crash", keys)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	reopenAndCheck(t, dir, "after crash and Close", keys).Close()
	checkOnlyLog(t, dir, oldIndexName)
}

// TestDeleteAndReopen: a tombstone an older build wrote (its Delete) is
// replayed on Open: the key stays deleted, a tombstone for an absent key
// changes nothing, and a later Put revives the key at the log's end.
func TestDeleteAndReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := fill(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	victim := keys[1]
	appendLog(t, dir, appendRecord("no-such-key", nil), appendRecord(victim, nil))

	db, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, found, _ := db.Get(victim); found {
		t.Error("deleted key resurfaced on reopen")
	}
	want := []string{keys[0], keys[2]}
	if got := db.Keys(); !reflect.DeepEqual(got, want) {
		t.Errorf("Keys after the tombstone = %v, want %v", got, want)
	}
	// Supersession: the deleted key accepts a fresh record.
	if err := db.Put(victim, results(t)[1]); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	want = append(want, victim)
	if got := db.Keys(); !reflect.DeepEqual(got, want) {
		t.Errorf("Keys after the revival = %v, want %v", got, want)
	}
	if _, found, err := db.Get(victim); err != nil || !found {
		t.Fatalf("re-Put key not readable: found=%v err=%v", found, err)
	}
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	keys := fill(t, db)
	db.f.Close() // crash: no Close

	logPath := filepath.Join(dir, LogName)
	intact, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		mut  func([]byte) []byte
		want int // surviving records
	}{
		// A write torn mid-record loses only that record.
		{"truncated tail", func(b []byte) []byte { return b[:len(b)-7] }, len(keys) - 1},
		// A flipped byte in the last record fails its checksum.
		{"corrupt tail", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-20] ^= 0xff
			return c
		}, len(keys) - 1},
		// Garbage appended after valid records is dropped.
		{"garbage tail", func(b []byte) []byte { return append(append([]byte(nil), b...), "partial"...) }, len(keys)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(logPath, tc.mut(append([]byte(nil), intact...)), 0o644); err != nil {
				t.Fatal(err)
			}
			db, err := Open(dir)
			if err != nil {
				t.Fatalf("Open after damage: %v", err)
			}
			if db.Len() != tc.want {
				t.Fatalf("recovered %d records, want %d", db.Len(), tc.want)
			}
			for _, key := range keys[:tc.want] {
				if _, found, err := db.Get(key); !found || err != nil {
					t.Errorf("Get(%q): found=%v err=%v", key, found, err)
				}
			}
			// The store must stay writable after recovery: re-put the lost
			// record and read everything back.
			for i, r := range results(t) {
				if err := db.Put(keys[i], r); err != nil {
					t.Fatalf("Put after recovery: %v", err)
				}
			}
			if db.Len() != len(keys) {
				t.Errorf("Len after refill = %d, want %d", db.Len(), len(keys))
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db, err = Open(dir)
			if err != nil {
				t.Fatalf("final reopen: %v", err)
			}
			defer db.Close()
			for _, key := range keys {
				if _, found, err := db.Get(key); !found || err != nil {
					t.Errorf("final Get(%q): found=%v err=%v", key, found, err)
				}
			}
		})
	}
}

func TestPutIsWriteOnce(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	r := results(t)[0]
	key := keyOf(t, r)
	if err := db.Put(key, r); err != nil {
		t.Fatal(err)
	}
	size1 := db.size
	if err := db.Put(key, r); err != nil {
		t.Fatal(err)
	}
	if db.size != size1 {
		t.Errorf("duplicate Put grew the log from %d to %d bytes", size1, db.size)
	}
	if db.Len() != 1 {
		t.Errorf("Len = %d, want 1", db.Len())
	}
	if err := db.Put("", r); err == nil {
		t.Errorf("Put with empty key succeeded")
	}
}

func TestScanOrder(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	keys := fill(t, db)
	var got []string
	err = db.Scan(func(key string, res *core.Result) error {
		if res == nil || res.Cycles() == 0 {
			t.Errorf("Scan(%q) delivered an empty result", key)
		}
		got = append(got, key)
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if !reflect.DeepEqual(got, keys) {
		t.Errorf("Scan order = %v, want insertion order %v", got, keys)
	}
}

// BenchmarkPut measures appending fresh records (distinct keys, one
// shared payload — the write path is key-independent).
func BenchmarkPut(b *testing.B) {
	r, err := core.Run(core.Config{Benchmark: "gcc", Insts: 5_000})
	if err != nil {
		b.Fatal(err)
	}
	db, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Put(fmt.Sprintf("bench-key-%d", i), r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGet measures reading + decoding one record from the log.
func BenchmarkGet(b *testing.B) {
	r, err := core.Run(core.Config{Benchmark: "gcc", Insts: 5_000})
	if err != nil {
		b.Fatal(err)
	}
	db, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if err := db.Put("bench-key", r); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, found, err := db.Get("bench-key"); !found || err != nil {
			b.Fatalf("found=%v err=%v", found, err)
		}
	}
}

// BenchmarkOpen measures reopening a store of 1,500 records of real
// result payloads under real configuration keys: one full log scan.
func BenchmarkOpen(b *testing.B) {
	dir := b.TempDir()
	db, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	rs := results(b)
	for i := range 1500 {
		r := rs[i%len(rs)]
		if err := db.Put(fmt.Sprintf("%s#%d", keyOf(b, r), i), r); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for range b.N {
		db, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		if db.Len() != 1500 {
			b.Fatalf("reopened %d records, want 1500", db.Len())
		}
		db.Close()
	}
}

// TestOpenReadsVersion1Log: a log an older build wrote under format
// version 1 opens, and appending to it keeps its header.
func TestOpenReadsVersion1Log(t *testing.T) {
	dir := t.TempDir()
	r := results(t)[0]
	payload, err := core.EncodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	log := append([]byte(Magic), 1)
	log = append(log, appendRecord(keyOf(t, r), payload)...)
	if err := os.WriteFile(filepath.Join(dir, LogName), log, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got, found, err := db.GetEncoded(keyOf(t, r)); err != nil || !found || string(got) != string(payload) {
		t.Fatalf("GetEncoded: found=%v err=%v", found, err)
	}
	if err := db.Put("fresh-key", r); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, LogName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(b, log) {
		t.Error("appending rewrote the version-1 log's existing bytes")
	}
}

func TestOpenIsExclusive(t *testing.T) {
	// The store is single-writer: a second concurrent Open — even from
	// the same process — must fail rather than corrupt the log.
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatalf("second concurrent Open succeeded")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Closing releases the lock; the next Open proceeds.
	db, err = Open(dir)
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	db.Close()
}

func TestOpenRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, LogName), []byte("not a result log at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Errorf("Open accepted a non-log file")
	}

	dir2 := t.TempDir()
	bad := append([]byte(Magic), 99) // future version
	if err := os.WriteFile(filepath.Join(dir2, LogName), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir2); err == nil {
		t.Errorf("Open accepted an unknown format version")
	}
}

// TestPutEncodedBulkIngest: canonical payloads computed elsewhere (the
// distributed coordinator's export stream) must land in the log
// byte-for-byte and read back as the identical result.
func TestPutEncodedBulkIngest(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()

	r := results(t)[0]
	key := keyOf(t, r)
	payload, err := core.EncodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.PutEncoded(key, payload); err != nil {
		t.Fatalf("PutEncoded: %v", err)
	}
	got, found, err := db.Get(key)
	if err != nil || !found {
		t.Fatalf("Get after PutEncoded: found=%v err=%v", found, err)
	}
	want := *r
	want.Config = want.Config.Canonical()
	if !reflect.DeepEqual(got, &want) {
		t.Error("PutEncoded round trip differs from the source result")
	}
	// The stored bytes are exactly the provided payload: a Put of the
	// same decoded result must be a no-op (same key), and a fresh encode
	// of the read-back result must reproduce the ingested bytes.
	if err := db.Put(key, got); err != nil {
		t.Fatalf("duplicate Put: %v", err)
	}
	if db.Len() != 1 {
		t.Errorf("Len = %d after duplicate Put, want 1", db.Len())
	}
	re, err := core.EncodeResult(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(re) != string(payload) {
		t.Error("read-back result re-encodes to different bytes than the ingested payload")
	}

	// Undecodable payloads must be rejected before touching the log.
	if err := db.PutEncoded("bad-key", []byte("{not json")); err == nil {
		t.Error("PutEncoded accepted an undecodable payload")
	}
	if err := db.PutEncoded("empty-key", nil); err == nil {
		t.Error("PutEncoded accepted an empty payload")
	}
	if db.Len() != 1 {
		t.Errorf("Len = %d after rejected ingests, want 1", db.Len())
	}

	// Ingested records survive reopen like any Put record.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, found, err := db2.Get(key); err != nil || !found {
		t.Errorf("reopened Get: found=%v err=%v", found, err)
	}
}
