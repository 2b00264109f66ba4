// Package tracestore implements the content-addressed trace store.
//
// A trace's identity is the SHA-256 of its canonical .wct bytes (see
// internal/trace ref.go); the store maps that hash to a local file. The
// on-disk layout under the store root is:
//
//	objects/<hh>/<hash>.wct   the trace bytes, named by their own hash
//	refs/<hash>/<owner>       one empty file per ref-count owner
//	tmp/                      staging area for in-flight Puts; Open
//	                          removes files a killed Put left there
//
// where <hh> is the first two hex digits of the hash (fan-out so no
// directory grows unboundedly). Objects are immutable once written: a Put
// streams to tmp/ while hashing, validates the .wct header, and renames
// into place — a hash that exists is already the right bytes, so Put of a
// duplicate is a no-op (dedupe). Readers therefore never see partial
// objects, and two processes sharing a store root cannot corrupt it.
//
// Ref counting is advisory and file-based: AddRef(hash, owner) records
// that owner still wants the object, GC removes objects with no refs that
// are older than a grace period. Nothing in the read path consults refs —
// a store used purely as a cache can skip them entirely.
package tracestore

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"waycache/internal/trace"
)

// ErrNotFound reports a hash the store has no object for. Callers
// distinguish it (errors.Is) from I/O failures: "not here" can be cured
// by fetching from a peer, a read error cannot.
var ErrNotFound = errors.New("tracestore: object not found")

// Store is a content-addressed collection of .wct files rooted at a
// directory. Methods are safe for concurrent use by multiple goroutines
// and cooperating processes (all mutations go through atomic renames).
type Store struct {
	root string
}

// Open returns a Store rooted at dir, creating the layout if needed, and
// removes the staging files a killed Put abandoned in tmp/.
func Open(dir string) (*Store, error) {
	for _, sub := range []string{"objects", "refs", "tmp"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("tracestore: %w", err)
		}
	}
	removeStale(filepath.Join(dir, "tmp"), time.Now().Add(-staleStaging))
	return &Store{root: dir}, nil
}

// staleStaging is how long a staging file in tmp/ may go unmodified
// before Open removes it. A Put removes its staging file when it returns,
// so one left behind belongs to a process killed mid-Put, and can hold up
// to a whole upload. Every write a live Put makes refreshes the file's
// modification time, so a file untouched this long belongs to no Put in
// progress, in this process or a cooperating one.
const staleStaging = 24 * time.Hour

// removeStale removes the regular files in dir last modified before
// cutoff. It is best effort: a file another process removes first, or one
// that cannot be removed, is left to the next Open.
func removeStale(dir string, cutoff time.Time) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if fi, err := e.Info(); err == nil && fi.Mode().IsRegular() && fi.ModTime().Before(cutoff) {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

func (s *Store) objectPath(hash string) string {
	return filepath.Join(s.root, "objects", hash[:2], hash+trace.FileExt)
}

// Put streams r into the store, returning the content hash of the bytes
// and the byte count. The stream must be a well-formed .wct file — the
// header is validated before the object is committed, so the store never
// serves bytes the trace reader would reject outright. If the object
// already exists the stream is still drained (to compute its hash) but
// the existing object is kept.
func (s *Store) Put(r io.Reader) (hash string, n int64, err error) {
	created, hash, n, err := s.put(r, "")
	_ = created
	return hash, n, err
}

// PutExpected streams r into the store, requiring its content hash to be
// want. A mismatch is an error and nothing is stored — this is the
// server-side check for uploads that name their own hash. created
// reports whether the object was new.
func (s *Store) PutExpected(r io.Reader, want string) (created bool, n int64, err error) {
	if !trace.ValidHash(want) {
		return false, 0, fmt.Errorf("tracestore: invalid content hash %q", want)
	}
	created, _, n, err = s.put(r, want)
	return created, n, err
}

// PutFile adds the .wct file at path to the store.
func (s *Store) PutFile(path string) (hash string, n int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	return s.Put(f)
}

func (s *Store) put(r io.Reader, want string) (created bool, hash string, n int64, err error) {
	tmp, err := os.CreateTemp(filepath.Join(s.root, "tmp"), "put-*"+trace.FileExt)
	if err != nil {
		return false, "", 0, fmt.Errorf("tracestore: %w", err)
	}
	tmpPath := tmp.Name()
	defer func() {
		tmp.Close()
		os.Remove(tmpPath) // no-op once renamed into place
	}()

	sum := sha256.New()
	n, err = io.Copy(io.MultiWriter(tmp, sum), r)
	if err != nil {
		return false, "", n, fmt.Errorf("tracestore: reading trace: %w", err)
	}
	hash = hex.EncodeToString(sum.Sum(nil))
	if want != "" && hash != want {
		return false, "", n, fmt.Errorf("tracestore: content hash mismatch: bytes hash to %s, upload names %s",
			trace.ShortHash(hash), trace.ShortHash(want))
	}

	// Validate the header so a hash never names bytes the reader rejects
	// outright. Mid-stream corruption is deliberately allowed through —
	// the .wct error-deferral contract (errors surface at the consumption
	// point) applies to stored objects exactly as to local files.
	if _, err := trace.ReadHeader(tmpPath); err != nil {
		return false, "", n, fmt.Errorf("tracestore: not a valid trace: %w", err)
	}

	dst := s.objectPath(hash)
	if _, err := os.Stat(dst); err == nil {
		return false, hash, n, nil // dedupe: the bytes are already here
	}
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return false, "", n, fmt.Errorf("tracestore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return false, "", n, fmt.Errorf("tracestore: %w", err)
	}
	if err := os.Rename(tmpPath, dst); err != nil {
		return false, "", n, fmt.Errorf("tracestore: %w", err)
	}
	return true, hash, n, nil
}

// Path returns the local file path of the object named by hash, or an
// error wrapping ErrNotFound when the store has no such object. The
// signature matches core.TraceStore, so a *Store plugs directly into
// core.Config.TraceStore.
func (s *Store) Path(hash string) (string, error) {
	if !trace.ValidHash(hash) {
		return "", fmt.Errorf("tracestore: invalid content hash %q", hash)
	}
	p := s.objectPath(hash)
	if _, err := os.Stat(p); err != nil {
		if os.IsNotExist(err) {
			return "", fmt.Errorf("%w: %s", ErrNotFound, trace.ShortHash(hash))
		}
		return "", fmt.Errorf("tracestore: %w", err)
	}
	return p, nil
}

// Has reports whether the store holds the object named by hash.
func (s *Store) Has(hash string) bool {
	_, err := s.Path(hash)
	return err == nil
}

// Open opens the object named by hash for reading, returning its size.
// The caller owns the returned file.
func (s *Store) Open(hash string) (*os.File, int64, error) {
	p, err := s.Path(hash)
	if err != nil {
		return nil, 0, err
	}
	f, err := os.Open(p)
	if err != nil {
		return nil, 0, fmt.Errorf("tracestore: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("tracestore: %w", err)
	}
	return f, fi.Size(), nil
}

// Hashes lists every object in the store, sorted.
func (s *Store) Hashes() ([]string, error) {
	fans, err := os.ReadDir(filepath.Join(s.root, "objects"))
	if err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	var out []string
	for _, fan := range fans {
		if !fan.IsDir() {
			continue
		}
		objs, err := os.ReadDir(filepath.Join(s.root, "objects", fan.Name()))
		if err != nil {
			return nil, fmt.Errorf("tracestore: %w", err)
		}
		for _, o := range objs {
			name := o.Name()
			if filepath.Ext(name) != trace.FileExt {
				continue
			}
			h := name[:len(name)-len(trace.FileExt)]
			if trace.ValidHash(h) {
				out = append(out, h)
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// AddRef records that owner wants the object named by hash kept. Owners
// are free-form tokens (a job name, a host, "pin"); adding the same
// (hash, owner) twice is a no-op.
func (s *Store) AddRef(hash, owner string) error {
	if !trace.ValidHash(hash) {
		return fmt.Errorf("tracestore: invalid content hash %q", hash)
	}
	if owner == "" || owner != filepath.Base(owner) {
		return fmt.Errorf("tracestore: invalid ref owner %q", owner)
	}
	dir := filepath.Join(s.root, "refs", hash)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("tracestore: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, owner), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("tracestore: %w", err)
	}
	return f.Close()
}

// DropRef removes owner's ref on hash. Dropping a ref that does not
// exist is a no-op.
func (s *Store) DropRef(hash, owner string) error {
	if !trace.ValidHash(hash) {
		return fmt.Errorf("tracestore: invalid content hash %q", hash)
	}
	if owner == "" || owner != filepath.Base(owner) {
		return fmt.Errorf("tracestore: invalid ref owner %q", owner)
	}
	err := os.Remove(filepath.Join(s.root, "refs", hash, owner))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("tracestore: %w", err)
	}
	os.Remove(filepath.Join(s.root, "refs", hash)) // drop the dir if now empty
	return nil
}

// RefCount returns the number of owners holding refs on hash.
func (s *Store) RefCount(hash string) int {
	ents, err := os.ReadDir(filepath.Join(s.root, "refs", hash))
	if err != nil {
		return 0
	}
	return len(ents)
}

// GC removes objects that have no refs and were stored at least minAge
// ago, returning the hashes removed. The age floor keeps GC from racing
// a Put-then-AddRef sequence in another process: a freshly uploaded
// object is never collected before its owner had time to ref it.
func (s *Store) GC(minAge time.Duration) (removed []string, err error) {
	hashes, err := s.Hashes()
	if err != nil {
		return nil, err
	}
	cutoff := time.Now().Add(-minAge)
	for _, h := range hashes {
		if s.RefCount(h) > 0 {
			continue
		}
		p := s.objectPath(h)
		fi, err := os.Stat(p)
		if err != nil {
			continue // raced with another GC
		}
		if fi.ModTime().After(cutoff) {
			continue
		}
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return removed, fmt.Errorf("tracestore: %w", err)
		}
		os.Remove(filepath.Join(s.root, "refs", h))
		removed = append(removed, h)
	}
	return removed, nil
}
