package resultdb

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzResultDBRecover feeds arbitrary bytes to the crash-recovery scan
// as a pre-existing results.log. Whatever the log holds — valid records,
// tombstones, torn tails, bit flips — Open must either refuse cleanly or
// come up consistent: every stored key readable, the file cut to the
// valid prefix, a reopen recovering every payload byte for byte, and a
// Put after recovery surviving a reopen.
func FuzzResultDBRecover(f *testing.F) {
	header := append([]byte(Magic), FormatVersion)
	payload := []byte(`{"Config":{"Benchmark":"gcc"},"EPI":0.5}`)
	// Three records and a tombstone for the second, as an older build's
	// Delete wrote it.
	full := append([]byte(nil), header...)
	for _, k := range []string{"cfg-a", "cfg-b", "cfg-c"} {
		full = append(full, appendRecord(k, payload)...)
	}
	full = append(full, appendRecord("cfg-b", nil)...)
	f.Add(full)
	f.Add(full[:len(full)-2]) // torn tail mid-record
	f.Add(header)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, log []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, LogName), log, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Open(dir)
		if err != nil {
			return // refused cleanly; the only requirement is no panic
		}
		defer db.Close()
		st, err := os.Stat(filepath.Join(dir, LogName))
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != db.size {
			t.Fatalf("log is %d bytes after recovery, valid prefix %d", st.Size(), db.size)
		}
		keys := db.Keys()
		if len(keys) != db.Len() {
			t.Fatalf("Keys() lists %d, Len() = %d", len(keys), db.Len())
		}
		live := make(map[string][]byte, len(keys))
		for _, k := range keys {
			p, found, err := db.GetEncoded(k)
			if err != nil || !found {
				t.Fatalf("recovered index lists %q but GetEncoded: found=%v err=%v", k, found, err)
			}
			live[k] = p
		}

		// A reopen must recover the same records, byte for byte and in
		// the same order, and a Put after recovery must survive one.
		const fresh = "fuzz-fresh-key"
		if err := db.PutEncoded(fresh, payload); err != nil {
			t.Fatalf("Put after recovery: %v", err)
		}
		if _, had := live[fresh]; !had {
			keys = append(keys, fresh)
			live[fresh] = payload
		}
		if err := db.Close(); err != nil {
			t.Fatalf("closing recovered store: %v", err)
		}
		db2, err := Open(dir)
		if err != nil {
			t.Fatalf("reopening recovered store: %v", err)
		}
		defer db2.Close()
		if got := db2.Keys(); !reflect.DeepEqual(got, keys) {
			t.Fatalf("reopened store lists %d keys, want the %d recovered and put", len(got), len(keys))
		}
		for k, want := range live {
			p, found, err := db2.GetEncoded(k)
			if err != nil || !found {
				t.Fatalf("reopened store lost %q: found=%v err=%v", k, found, err)
			}
			if !bytes.Equal(p, want) {
				t.Fatalf("record %q changed across reopen", k)
			}
		}
	})
}
