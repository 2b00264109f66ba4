package tracestore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"waycache/internal/isa"
	"waycache/internal/trace"
)

// wctBytes builds a tiny valid .wct capture.
func wctBytes(t *testing.T, bench string, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{Benchmark: bench, Insts: int64(n)})
	if err != nil {
		t.Fatal(err)
	}
	pc := uint64(0x1000)
	for i := 0; i < n; i++ {
		addr := uint64(0x8000 + i*16)
		in := trace.Inst{PC: pc, Kind: isa.KindLoad, Addr: addr, BaseValue: addr, Offset: 0}
		if err := w.Write(&in); err != nil {
			t.Fatal(err)
		}
		pc += isa.InstBytes
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b := wctBytes(t, "gcc", 25)
	hash, n, err := s.Put(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if hash != sha(b) {
		t.Fatalf("Put hash %s, want %s", hash, sha(b))
	}
	if n != int64(len(b)) {
		t.Fatalf("Put counted %d bytes, want %d", n, len(b))
	}

	p, err := s.Path(hash)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, b) {
		t.Fatal("stored object differs from the uploaded bytes")
	}
	if !s.Has(hash) {
		t.Fatal("Has is false for a stored object")
	}

	f, size, err := s.Open(hash)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if size != int64(len(b)) {
		t.Fatalf("Open size %d, want %d", size, len(b))
	}
}

func TestPutDedupes(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b := wctBytes(t, "gcc", 10)
	h1, _, err := s.Put(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	p, _ := s.Path(h1)
	fi1, _ := os.Stat(p)

	time.Sleep(10 * time.Millisecond)
	h2, _, err := s.Put(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("same bytes hashed differently: %s vs %s", h1, h2)
	}
	fi2, _ := os.Stat(p)
	if !fi1.ModTime().Equal(fi2.ModTime()) {
		t.Fatal("duplicate Put rewrote the existing object")
	}
	hashes, err := s.Hashes()
	if err != nil {
		t.Fatal(err)
	}
	if len(hashes) != 1 || hashes[0] != h1 {
		t.Fatalf("Hashes = %v, want [%s]", hashes, h1)
	}
}

func TestPutExpected(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b := wctBytes(t, "gcc", 10)

	created, _, err := s.PutExpected(bytes.NewReader(b), sha(b))
	if err != nil || !created {
		t.Fatalf("PutExpected = (%v, %v), want created", created, err)
	}
	created, _, err = s.PutExpected(bytes.NewReader(b), sha(b))
	if err != nil || created {
		t.Fatalf("second PutExpected = (%v, %v), want existing", created, err)
	}

	wrong := strings.Repeat("00", 32)
	if _, _, err := s.PutExpected(bytes.NewReader(b), wrong); err == nil {
		t.Fatal("PutExpected accepted a wrong hash")
	}
	if s.Has(wrong) {
		t.Fatal("failed PutExpected left an object behind")
	}
	if _, _, err := s.PutExpected(bytes.NewReader(b), "nothex"); err == nil {
		t.Fatal("PutExpected accepted a malformed hash")
	}
}

// TestOpenRemovesStaleStaging leaves two staging files in tmp/, as Puts
// killed before their cleanup would: Open removes the one untouched for
// longer than staleStaging and keeps the fresh one, which may belong to a
// cooperating process's Put in progress.
func TestOpenRemovesStaleStaging(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	aged := filepath.Join(dir, "tmp", "put-aged"+trace.FileExt)
	fresh := filepath.Join(dir, "tmp", "put-fresh"+trace.FileExt)
	for _, p := range []string{aged, fresh} {
		if err := os.WriteFile(p, []byte("partial upload"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-staleStaging - time.Minute)
	if err := os.Chtimes(aged, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(aged); !os.IsNotExist(err) {
		t.Errorf("aged staging file survived Open: %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("fresh staging file removed by Open: %v", err)
	}
}

func TestPutRejectsNonTrace(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Put(strings.NewReader("this is not a wct file")); err == nil {
		t.Fatal("Put accepted bytes with no trace header")
	}
	hashes, _ := s.Hashes()
	if len(hashes) != 0 {
		t.Fatalf("rejected Put left objects: %v", hashes)
	}
	// The staging area must not leak temp files.
	tmps, _ := os.ReadDir(filepath.Join(s.Root(), "tmp"))
	if len(tmps) != 0 {
		t.Fatalf("rejected Put leaked %d temp files", len(tmps))
	}
}

func TestPathNotFound(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	missing := strings.Repeat("ab", 32)
	if _, err := s.Path(missing); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Path(missing) = %v, want ErrNotFound", err)
	}
	if _, err := s.Path("nothex"); err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("Path(malformed) = %v, want a validation error distinct from ErrNotFound", err)
	}
}

func TestPutFile(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b := wctBytes(t, "swim", 15)
	path := filepath.Join(t.TempDir(), "swim.wct")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	hash, _, err := s.PutFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if hash != sha(b) {
		t.Fatalf("PutFile hash %s, want %s", hash, sha(b))
	}
}

func TestRefsAndGC(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b1 := wctBytes(t, "gcc", 10)
	b2 := wctBytes(t, "swim", 10)
	h1, _, _ := s.Put(bytes.NewReader(b1))
	h2, _, _ := s.Put(bytes.NewReader(b2))

	if err := s.AddRef(h1, "job-a"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRef(h1, "job-a"); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := s.AddRef(h1, "job-b"); err != nil {
		t.Fatal(err)
	}
	if got := s.RefCount(h1); got != 2 {
		t.Fatalf("RefCount = %d, want 2", got)
	}
	if err := s.AddRef(h1, "../escape"); err == nil {
		t.Fatal("AddRef accepted a path-traversal owner")
	}

	// Unreferenced h2 is collected once old enough; referenced h1 stays.
	old := time.Now().Add(-time.Hour)
	for _, h := range []string{h1, h2} {
		p, _ := s.Path(h)
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := s.GC(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != h2 {
		t.Fatalf("GC removed %v, want [%s]", removed, h2)
	}
	if !s.Has(h1) || s.Has(h2) {
		t.Fatal("GC removed the wrong object")
	}

	// Fresh unreferenced objects survive the age floor.
	h3, _, _ := s.Put(bytes.NewReader(wctBytes(t, "mesa", 5)))
	removed, err = s.GC(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 0 || !s.Has(h3) {
		t.Fatalf("GC collected a fresh object: removed=%v", removed)
	}

	// Dropping the last ref makes h1 collectable.
	if err := s.DropRef(h1, "job-a"); err != nil {
		t.Fatal(err)
	}
	if err := s.DropRef(h1, "job-b"); err != nil {
		t.Fatal(err)
	}
	if err := s.DropRef(h1, "job-b"); err != nil { // idempotent
		t.Fatal(err)
	}
	removed, err = s.GC(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != h1 {
		t.Fatalf("GC after DropRef removed %v, want [%s]", removed, h1)
	}
}

func TestStoreServesArenaLoadRef(t *testing.T) {
	// End-to-end with the arena: the store path plus the store's own hash
	// is exactly what LoadRef wants.
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b := wctBytes(t, "gcc", 40)
	hash, _, err := s.Put(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Path(hash)
	if err != nil {
		t.Fatal(err)
	}
	src, err := trace.NewArena(0).LoadRef(p, hash)
	if err != nil {
		t.Fatal(err)
	}
	if h := src.Header(); h.Benchmark != "gcc" || h.Insts != 40 {
		t.Fatalf("replayed header %+v", h)
	}
	count := 0
	for w := src.Window(); len(w) > 0; w = src.Window() {
		count += len(w)
		src.Advance(len(w))
	}
	if count != 40 || src.Err() != nil {
		t.Fatalf("replayed %d records, err %v", count, src.Err())
	}
}
