package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseRef(t *testing.T) {
	h := strings.Repeat("ab", 32)
	cases := []struct {
		in   string
		hash string
		ok   bool
	}{
		{RefScheme + h, h, true},
		{h, "", false},                              // bare hash: not a ref
		{"traces/gcc.wct", "", false},               // ordinary path
		{RefScheme + strings.ToUpper(h), "", false}, // one spelling per hash
		{RefScheme + h[:63], "", false},             // short
		{RefScheme + h + "0", "", false},            // long
		{RefScheme + h[:63] + "g", "", false},       // non-hex
		{RefScheme, "", false},
		{"", "", false},
	}
	for _, c := range cases {
		hash, ok := ParseRef(c.in)
		if hash != c.hash || ok != c.ok {
			t.Errorf("ParseRef(%q) = (%q, %v), want (%q, %v)", c.in, hash, ok, c.hash, c.ok)
		}
	}
	if got := FormatRef(h); got != RefScheme+h {
		t.Errorf("FormatRef = %q", got)
	}
	if round, ok := ParseRef(FormatRef(h)); !ok || round != h {
		t.Errorf("FormatRef/ParseRef round trip lost the hash: (%q, %v)", round, ok)
	}
}

func hashFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestArenaLoadRefSharesAcrossPaths(t *testing.T) {
	dir := t.TempDir()
	insts := arenaInsts(120)
	p1 := filepath.Join(dir, "a", "gcc.wct")
	p2 := filepath.Join(dir, "b", "copy.wct")
	for _, p := range []string{p1, p2} {
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		writeTrace(t, p, Header{Benchmark: "gcc", Insts: 120}, insts)
	}
	hash := hashFile(t, p1)

	a := NewArena(0)
	s1, err := a.LoadRef(p1, hash)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := a.LoadRef(p2, hash)
	if err != nil {
		t.Fatal(err)
	}
	if s1.t != s2.t {
		t.Fatal("same hash at two paths decoded twice; hash key should share the decode")
	}
	if a.Len() != 1 || a.Resident() != 120 {
		t.Fatalf("arena holds %d entries / %d insts, want 1 / 120", a.Len(), a.Resident())
	}
	if got := drain(s1); len(got) != 120 || got[0] != insts[0] {
		t.Fatalf("replay returned %d records", len(got))
	}

	// A path-keyed Load of the same file is a distinct entry: the hash key
	// carries a verification guarantee the path key does not.
	if _, err := a.Load(p1); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 2 {
		t.Fatalf("arena holds %d entries after Load+LoadRef, want 2", a.Len())
	}
}

func TestArenaLoadRefRejectsMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.wct")
	writeTrace(t, path, Header{Insts: 30}, arenaInsts(30))
	wrong := strings.Repeat("00", 32)

	a := NewArena(0)
	if _, err := a.LoadRef(path, wrong); err == nil {
		t.Fatal("LoadRef accepted bytes that do not hash to the reference")
	} else if !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("mismatch error %q does not say so", err)
	}
	if a.Len() != 0 {
		t.Fatal("failed verification left a cached entry")
	}

	// The failure must not be sticky: once the right bytes land at the
	// path, the same hash loads.
	right := hashFile(t, path)
	if _, err := a.LoadRef(path, right); err != nil {
		t.Fatalf("LoadRef after earlier mismatch: %v", err)
	}
}

func TestArenaLoadRefIgnoresStaleOverwrite(t *testing.T) {
	// An overwrite that preserves size and mtime defeats the path key's
	// stat heuristic; under a hash key the first load pinned the verified
	// content, and a *new* hash for the new content reads the new bytes.
	path := filepath.Join(t.TempDir(), "x.wct")
	writeTrace(t, path, Header{Insts: 40}, arenaInsts(40))
	h1 := hashFile(t, path)

	a := NewArena(0)
	s1, err := a.LoadRef(path, h1)
	if err != nil {
		t.Fatal(err)
	}
	first := drain(s1)

	// Overwrite with different content of identical length, restoring mtime.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	alt := arenaInsts(40)
	for i := range alt {
		alt[i].Addr += 8
		alt[i].BaseValue += 8
	}
	writeTrace(t, path, Header{Insts: 40}, alt)
	if err := os.Chtimes(path, fi.ModTime(), fi.ModTime()); err != nil {
		t.Fatal(err)
	}
	h2 := hashFile(t, path)
	if h2 == h1 {
		t.Fatal("test bug: overwrite produced identical bytes")
	}

	s1b, err := a.LoadRef(path, h1)
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(s1b); len(got) != len(first) || got[0] != first[0] {
		t.Fatal("hash-keyed entry changed content after an overwrite")
	}
	s2, err := a.LoadRef(path, h2)
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(s2); got[0].Addr != first[0].Addr+8 {
		t.Fatal("new hash did not read the new bytes")
	}
	if a.Len() != 2 {
		t.Fatalf("arena holds %d entries, want 2 (one per hash)", a.Len())
	}
}

func TestArenaLoadRefInvalidHash(t *testing.T) {
	a := NewArena(0)
	if _, err := a.LoadRef("whatever.wct", "nothex"); err == nil {
		t.Fatal("LoadRef accepted a malformed hash")
	}
}

func TestShortHash(t *testing.T) {
	h := strings.Repeat("ab", 32)
	if got := ShortHash(h); got != "abababababab…" {
		t.Errorf("ShortHash = %q", got)
	}
	if got := ShortHash("abc"); got != "abc" {
		t.Errorf("ShortHash(short) = %q", got)
	}
}
