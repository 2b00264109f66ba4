package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"waycache/internal/isa"
)

// arenaInsts builds a small deterministic stream for capture tests: n
// loads, each at a PC of its own.
func arenaInsts(n int) []Inst {
	insts := make([]Inst, n)
	pc := uint64(0x1000)
	for i := range insts {
		addr := uint64(0x8000 + i*32)
		insts[i] = Inst{PC: pc, Kind: isa.KindLoad, Addr: addr, BaseValue: addr - 4, Offset: 4}
		pc += isa.InstBytes
	}
	return insts
}

// arenaInstsBytes is the exact resident size of arenaInsts(n) decoded
// from a file: no PC repeats, so every instruction is a static of its
// own (with its nextMem and nextFixed entries, plus the closing ones),
// all in one run (plus the terminating run). Every address is a first
// visit past 32 KiB, so each takes the sentinel delta and a wide word.
func arenaInstsBytes(n int) int64 {
	return int64(n)*(recordBytes+deltaBytes+wideBytes) + 2*int64(n+1)*nextMemBytes + 2*runBytes
}

func writeTrace(t *testing.T, path string, h Header, insts []Inst) {
	t.Helper()
	if err := os.WriteFile(path, encodeTrace(t, h, insts), 0o644); err != nil {
		t.Fatal(err)
	}
}

// encodeTrace returns insts in the trace format under header h.
func encodeTrace(tb testing.TB, h Header, insts []Inst) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, h)
	if err != nil {
		tb.Fatal(err)
	}
	for i := range insts {
		if err := w.Write(&insts[i]); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// drain reads src to its end, a whole window at a time.
func drain(src WindowSource) []Inst {
	var out []Inst
	for w := src.Window(); len(w) > 0; w = src.Window() {
		out = append(out, w...)
		src.Advance(len(w))
	}
	return out
}

// pull is the Source view of a WindowSource, one instruction a call: the
// Next-only producer Capture reads.
type pull struct{ WindowSource }

func (p pull) Next(out *Inst) bool {
	w := p.Window()
	if len(w) == 0 {
		return false
	}
	*out = w[0]
	p.Advance(1)
	return true
}

func TestArenaDecodesOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.wct")
	writeTrace(t, path, Header{Insts: 100}, arenaInsts(100))

	a := NewArena(0)
	s1, err := a.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := a.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	// Same backing array, independent cursors.
	if s1.t != s2.t {
		t.Fatal("second Load decoded a fresh copy instead of sharing the arena slice")
	}
	s1.Window()
	s1.Advance(1)
	if s2.Count() != 0 {
		t.Fatal("cursors are shared between MemSources")
	}
	if a.Len() != 1 || a.Resident() != 100 {
		t.Fatalf("arena holds %d files / %d insts, want 1 / 100", a.Len(), a.Resident())
	}
}

func TestArenaInvalidatesOnRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.wct")
	writeTrace(t, path, Header{Insts: 50}, arenaInsts(50))

	a := NewArena(0)
	if _, err := a.Load(path); err != nil {
		t.Fatal(err)
	}
	// Re-capture with different contents (and force a distinct mtime for
	// filesystems with coarse timestamps).
	writeTrace(t, path, Header{Insts: 80}, arenaInsts(80))
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	src, err := a.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(drain(src)); got != 80 {
		t.Fatalf("replayed %d records after rewrite, want 80 (stale cache?)", got)
	}
	if a.Resident() != 80 {
		t.Fatalf("resident %d after invalidation, want 80", a.Resident())
	}
}

func TestArenaMissingFile(t *testing.T) {
	a := NewArena(0)
	if _, err := a.Load(filepath.Join(t.TempDir(), "absent.wct")); !os.IsNotExist(err) {
		t.Fatalf("missing file error %v, want os.IsNotExist", err)
	}
}

func TestArenaEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	capBytes := 5 * arenaInstsBytes(100) / 2 // room for two 100-record files, not three
	a := NewArena(capBytes)
	paths := make([]string, 3)
	for i := range paths {
		paths[i] = filepath.Join(dir, string(rune('a'+i))+".wct")
		writeTrace(t, paths[i], Header{Insts: 100}, arenaInsts(100))
	}
	for _, p := range paths {
		if _, err := a.Load(p); err != nil {
			t.Fatal(err)
		}
	}
	if a.ResidentBytes() > capBytes {
		t.Fatalf("resident %d bytes exceeds capacity %d", a.ResidentBytes(), capBytes)
	}
	if a.Len() != 2 {
		t.Fatalf("arena holds %d files, want 2 after LRU eviction", a.Len())
	}
	// The most recently used file must have survived.
	before := a.Len()
	if _, err := a.Load(paths[2]); err != nil {
		t.Fatal(err)
	}
	if a.Len() != before {
		t.Fatal("most-recently-used file was evicted")
	}
}

func TestArenaConcurrentLoadDecodesOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.wct")
	writeTrace(t, path, Header{Insts: 200}, arenaInsts(200))

	a := NewArena(0)
	var wg sync.WaitGroup
	srcs := make([]*MemSource, 16)
	for i := range srcs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src, err := a.Load(path)
			if err != nil {
				t.Error(err)
				return
			}
			srcs[i] = src
			// Replays share the packed records and expand them into
			// buffers of their own.
			if got := len(drain(src)); got != 200 {
				t.Errorf("concurrent replay %d yields %d records, want 200", i, got)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, s := range srcs[1:] {
		if s.t != srcs[0].t {
			t.Fatal("concurrent loads decoded independent copies")
		}
	}
	if a.Resident() != 200 {
		t.Fatalf("resident %d after concurrent loads, want 200 (double-counted?)", a.Resident())
	}
}

func TestArenaDoesNotCacheOpenFailures(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.wct")
	if err := os.WriteFile(path, []byte("not a trace file at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	a := NewArena(0)
	for i := 0; i < 3; i++ {
		if _, err := a.Load(path); err == nil {
			t.Fatal("bad-magic file loaded successfully")
		}
	}
	if a.Len() != 0 {
		t.Fatalf("arena caches %d failed entries, want 0 (open failures must be retried)", a.Len())
	}
	// The same path becomes loadable once the file is repaired.
	writeTrace(t, path, Header{Insts: 10}, arenaInsts(10))
	if _, err := a.Load(path); err != nil {
		t.Fatalf("repaired file still fails: %v", err)
	}
}

func TestArenaHugeDeclaredCountBounded(t *testing.T) {
	// A corrupt header declaring an absurd instruction count must not
	// drive the preallocation: the file itself bounds it.
	path := filepath.Join(t.TempDir(), "huge.wct")
	writeTrace(t, path, Header{Insts: 0}, arenaInsts(5)) // undeclared count
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Re-encode with a huge declared count by writing a fresh header and
	// splicing the original records behind it.
	var hdr bytes.Buffer
	w, err := NewWriter(&hdr, Header{Insts: 1 << 50})
	if err != nil {
		t.Fatal(err)
	}
	_ = w.Close() // flushes the header; the declared-count error is expected
	var empty bytes.Buffer
	we, err := NewWriter(&empty, Header{Insts: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := we.Close(); err != nil {
		t.Fatal(err)
	}
	body := raw[empty.Len():]
	if err := os.WriteFile(path, append(hdr.Bytes(), body...), 0o644); err != nil {
		t.Fatal(err)
	}

	a := NewArena(0)
	src, err := a.Load(path) // must not attempt a 2^50-entry allocation
	if err != nil {
		t.Fatal(err)
	}
	if got := len(drain(src)); got != 5 {
		t.Fatalf("replayed %d records, want 5", got)
	}
	if src.Err() == nil {
		t.Fatal("short file with huge declared count decoded cleanly")
	}
}
