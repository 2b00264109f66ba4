package trace

// The trace arena: a process-wide cache of fully decoded trace files.
//
// A design-space sweep replays the same few <benchmark>.wct captures for
// every grid cell, and before the arena each cell paid the full streaming
// decode (varint parsing, per-record validation) again. The arena decodes
// each file once into a shared static-instruction table (packed.go): the
// capture's distinct instructions, the runs of consecutive statics its
// instructions form, and each memory address as a 2-byte delta from the
// previous address of its static. Every simulation gets an index-replay
// MemSource over that table, so an N-config grid decodes each capture
// once instead of N/gridsize times. Replay does no varint work: each
// MemSource expands a fixed run of instructions at a time into its own
// fetch-window buffer, a run segment at a time, with a table read, a
// delta add and a few field copies per instruction.
//
// A corrupt file replays its good prefix, and its decode error is
// deferred to MemSource.Err: a run that consumes fewer instructions than
// the prefix holds never sees it. TestDecodeErrorTexts pins each error's
// text and the prefix before it.
//
// The arena also holds in-process captures of generators (Capture), so
// every run of a suite benchmark replays one copy of its walker stream.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"sync"
	"time"
)

// DefaultArenaCap bounds the shared arena's resident bytes, as
// ResidentBytes counts them. A resident instruction costs from a fraction
// of a byte (a revisited non-memory static inside a run) to 50 (a memory
// instruction at a PC never seen before that starts a run and takes a
// wide address) or about 70 (an escaped one, a run of its own), so the
// cap counts memory, not instructions. Suite benchmarks cost 0.61 to 1.39
// bytes per instruction captured in process and 0.87 to 1.77 decoded, so
// 384 MiB holds about 230 to 660 million suite-like instructions.
// Long-lived processes (waycached) sweep many grids over the same handful
// of captures; least-recently-used files are evicted past the cap.
const DefaultArenaCap = 384 << 20

// Arena caches decoded trace files and in-process captures. Path-keyed
// entries (Load) are invalidated when the file's size or modification
// time changes, so a re-captured trace is re-decoded rather than served
// stale. Hash-keyed entries (LoadRef) are content-addressed: the key IS
// the content, so the same trace fetched to different paths decodes
// once, and the decode verifies the bytes against the hash — an
// overwrite that preserves size and mtime can never serve stale
// instructions under a hash key. Capture entries are keyed by generator
// name and seed. The zero value is not usable; use NewArena or the
// process-wide SharedArena.
type Arena struct {
	mu       sync.Mutex
	entries  map[string]*arenaEntry
	capAt    int64 // maximum resident bytes; <= 0 means unbounded
	resident int64 // bytes of the decoded, mapped entries
	tick     int64 // LRU clock
}

type arenaEntry struct {
	once  sync.Once
	size  int64
	mtime time.Time

	h         Header
	t         table
	openErr   error // open/header failure: the whole load failed
	decodeErr error // record-stream failure after t.insts() good records
	lastUse   int64
}

// NewArena returns an arena bounded to capBytes resident bytes (<= 0
// means unbounded).
func NewArena(capBytes int64) *Arena {
	return &Arena{entries: make(map[string]*arenaEntry), capAt: capBytes}
}

var shared = NewArena(DefaultArenaCap)

// SharedArena returns the process-wide arena every core.Run replays
// from: suite benchmarks' captures and core.Config.Trace files.
func SharedArena() *Arena { return shared }

// Load returns a MemSource replaying the decoded contents of the trace
// file at path, decoding it at most once per (path, size, mtime) across
// all concurrent callers. Open and header errors are returned as is;
// mid-stream decode errors are deferred to the MemSource so a run that
// never reaches the corrupt suffix never sees them.
func (a *Arena) Load(path string) (*MemSource, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}

	fresh := &arenaEntry{size: fi.Size(), mtime: fi.ModTime()}
	e := a.entry(path, fresh, func(old *arenaEntry) bool {
		return old.size != fresh.size || !old.mtime.Equal(fresh.mtime) // re-captured file
	})
	e.once.Do(func() { e.decode(path, "") })
	return a.finish(path, e)
}

// LoadRef returns a MemSource replaying the trace whose canonical bytes
// hash (SHA-256, lowercase hex) to sha256hex, reading them from path on
// first use. The entry is keyed by the content hash, not the path: the
// same trace fetched to different paths on different hosts — or to a
// store object and a scratch copy on one host — decodes exactly once, and
// a later caller naming a different path for the same hash shares the
// decode. The file's bytes are hashed before decoding and a mismatch is an
// error, so content served under a hash is always the content the hash
// names — no (size, mtime) heuristic is involved, and an overwrite that
// preserves both cannot serve stale instructions.
func (a *Arena) LoadRef(path, sha256hex string) (*MemSource, error) {
	if !ValidHash(sha256hex) {
		return nil, fmt.Errorf("trace: invalid content hash %q", sha256hex)
	}
	key := "sha256:" + sha256hex
	e := a.entry(key, &arenaEntry{}, func(*arenaEntry) bool { return false })
	e.once.Do(func() { e.decode(path, sha256hex) })
	return a.finish(key, e)
}

// A capture is built only when its size, reckoned at captureInstBytes an
// instruction (past the 1.39 of the costliest suite capture), is at most
// 1/captureShare of the arena's cap: the whole suite's captures then fit
// under the cap at once, and no one run takes the arena's memory. A table
// numbers its instructions in 32 bits, and a builder counts them in an
// int.
const (
	captureShare     = 16
	captureInstBytes = 2
	maxCaptureInsts  = min(math.MaxUint32, math.MaxInt)
)

// Capture returns a source of the first h.Insts instructions of the
// endless stream gen returns, which h.Benchmark and h.Seed name. The
// first request for a name, or one longer than its capture, drains gen
// into a table once across all concurrent callers, replacing the shorter
// one; every request of its length or less then replays that table.
// Captures count against the cap like files and are rebuilt if evicted.
// A stream too long to capture (see captureShare) is not held: its
// source generates it as it is read, in constant memory.
func (a *Arena) Capture(h Header, gen func() Source) WindowSource {
	if h.Insts > maxCaptureInsts || a.capAt > 0 && h.Insts > a.capAt/(captureShare*captureInstBytes) {
		return Windowed(gen(), expandRun)
	}
	h.Insts = max(h.Insts, 0)
	key := fmt.Sprintf("capture:%s:%#x", h.Benchmark, h.Seed)
	e := a.entry(key, &arenaEntry{h: h}, func(old *arenaEntry) bool { return old.h.Insts < h.Insts })
	e.once.Do(func() { e.t = captureTable(gen(), int(e.h.Insts)) })
	src, _ := a.finish(key, e) // a capture has no open error
	return src
}

// captureTable builds the table of the first n instructions src yields,
// or of all of them if it runs dry first, packing a window at a time,
// with its constant addresses fixed.
func captureTable(src Source, n int) table {
	b := newTableBuilder(0)
	var buf [expandRun]Inst
	for k := len(buf); k == len(buf) && b.n < n; b.addInsts(buf[:k]) {
		for k = 0; k < min(len(buf), n-b.n) && src.Next(&buf[k]); k++ {
		}
	}
	b.fixAddresses()
	return b.finish()
}

// entry returns the entry cached under key, or maps fresh there when
// there is none or stale reports the cached one out of date, dropping a
// replaced entry's footprint from the resident count.
func (a *Arena) entry(key string, fresh *arenaEntry, stale func(*arenaEntry) bool) *arenaEntry {
	a.mu.Lock()
	defer a.mu.Unlock()
	e := a.entries[key]
	if e != nil && !stale(e) {
		return e
	}
	if e != nil && e.lastUse != 0 {
		a.resident -= e.t.bytes()
	}
	a.entries[key] = fresh
	return fresh
}

// finish applies the shared post-decode bookkeeping for the entry cached
// under key: open failures are uncached (transient errors must not poison
// the key for the life of the process), successful first uses are charged
// to the resident count, and the LRU clock advances.
func (a *Arena) finish(key string, e *arenaEntry) (*MemSource, error) {
	if e.openErr != nil {
		a.mu.Lock()
		if a.entries[key] == e {
			delete(a.entries, key)
		}
		a.mu.Unlock()
		return nil, e.openErr
	}

	a.mu.Lock()
	a.tick++
	// Account the footprint only while the entry is still the mapped one:
	// a re-capture may have replaced it mid-decode, and charging a
	// resident count evictLocked can no longer reach would inflate it
	// forever.
	if a.entries[key] == e {
		if e.lastUse == 0 { // first successful use: account its footprint
			a.resident += e.t.bytes()
		}
		e.lastUse = a.tick
		a.evictLocked()
	}
	a.mu.Unlock()

	return newMemSource(&e.t, e.h, e.decodeErr), nil
}

// decode reads the whole file, verifies it against wantHash when one is
// given, and decodes its records into a static-instruction table. A hash
// mismatch turns the whole load into an open error: nothing is cached or
// served under a hash the bytes do not carry.
func (e *arenaEntry) decode(path, wantHash string) {
	data, err := os.ReadFile(path)
	if err != nil {
		e.openErr = err
		return
	}
	h, body, err := splitHeader(data)
	if err != nil {
		e.openErr = err
		return
	}
	if wantHash != "" {
		// The hash names the whole file, including any bytes after the
		// declared records.
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != wantHash {
			e.openErr = fmt.Errorf("trace: %s content mismatch: bytes hash to %s, reference names %s",
				path, ShortHash(got), ShortHash(wantHash))
			return
		}
	}
	e.h = h

	// Size the table from the declared count, but never trust it past
	// what the file could physically hold (records are at least one
	// byte): a corrupt header must not drive a huge allocation.
	b := newTableBuilder(int(min(h.Insts, int64(len(body)))))
	d := decoder{declared: h.Insts}
	var recs [expandRun]record // decoded a run at a time, then interned
	for k := len(recs); k == len(recs); {
		var n int
		k, n = d.next(body, recs[:])
		body = body[n:]
		b.add(recs[:k], d.esc)
	}
	e.t, e.decodeErr = b.finish(), d.err
}

// evictLocked drops least-recently-used entries until the arena is within
// its capacity. Outstanding MemSources keep their slices alive; eviction
// only forgets the cache mapping.
func (a *Arena) evictLocked() {
	if a.capAt <= 0 {
		return
	}
	for a.resident > a.capAt && len(a.entries) > 1 {
		var oldPath string
		var old *arenaEntry
		for p, e := range a.entries {
			if e.lastUse == 0 {
				continue // still decoding or failed: no footprint yet
			}
			if old == nil || e.lastUse < old.lastUse {
				oldPath, old = p, e
			}
		}
		if old == nil || old.lastUse == a.tick {
			return // nothing evictable but the entry just used
		}
		a.resident -= old.t.bytes()
		delete(a.entries, oldPath)
	}
}

// Len returns the number of cached files (testing/inspection).
func (a *Arena) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.entries)
}

// Resident returns the number of resident decoded instructions.
func (a *Arena) Resident() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var n int64
	for _, e := range a.entries {
		if e.lastUse != 0 { // accounted in resident: decoded and mapped
			n += int64(e.t.insts())
		}
	}
	return n
}

// ResidentBytes returns the memory the resident decoded traces occupy:
// their static-instruction tables, escaped instructions included. The
// arena's cap bounds it.
func (a *Arena) ResidentBytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.resident
}

// MemSource replays a decoded trace by index: the WindowSource the arena
// hands each simulation. The static-instruction table is shared; each
// MemSource keeps its own cursors into it — the next instruction, and the
// position in the table's streams past its expanded window — and each
// memory static's latest address, and expands up to expandRun
// instructions at a time into its own buffer, which Window exposes: no
// I/O, no varint decoding and no allocation once the source is built.
type MemSource struct {
	t         *table
	pos       int      // instructions consumed
	c         cursor   // the table's streams past the expanded window
	last      []uint64 // by static: the latest address as of the window's end
	win       []Inst   // the expanded instructions from pos on, a prefix of buf
	buf       []Inst
	h         Header
	decodeErr error
}

// expandRun is the number of instructions a MemSource expands per
// window: far past the fetch stride, and its 12 KiB buffer stays
// cache-resident.
const expandRun = 256

func newMemSource(t *table, h Header, decodeErr error) *MemSource {
	return &MemSource{
		t: t, h: h, decodeErr: decodeErr,
		last: make([]uint64, len(t.statics)),
		buf:  make([]Inst, min(expandRun, t.insts())),
	}
}

// NewMemSource returns a MemSource over a static-instruction table of
// insts with header h (primarily for tests; the arena's Load, LoadRef and
// Capture are the production constructors).
func NewMemSource(insts []Inst, h Header) *MemSource {
	b := newTableBuilder(len(insts))
	b.addInsts(insts)
	t := b.finish()
	return newMemSource(&t, h, nil)
}

// Window implements WindowSource: the expanded run of instructions from
// the current position, expanding the next run once the last one is
// consumed.
//
//wclint:hotpath
func (m *MemSource) Window() []Inst {
	if len(m.win) == 0 {
		n := min(len(m.buf), m.t.insts()-m.pos)
		if n <= 0 {
			return nil
		}
		m.win = m.buf[:n]
		m.t.expand(&m.c, m.last, m.win)
	}
	return m.win
}

// Advance implements WindowSource.
//
//wclint:hotpath
func (m *MemSource) Advance(n int) {
	m.win = m.win[n:]
	m.pos += n
}

// Header returns the file header of the backing trace.
func (m *MemSource) Header() Header { return m.h }

// Count returns the number of records replayed so far.
func (m *MemSource) Count() int64 { return int64(m.pos) }

// Remaining returns the number of records left to replay.
func (m *MemSource) Remaining() int64 { return int64(m.t.insts() - m.pos) }

// Err returns the decode error the backing file carries beyond the records
// Window can reach, or nil for a clean trace. A consumer that drained
// fewer records than it needed must consult Err to distinguish a short
// trace from a corrupt one.
func (m *MemSource) Err() error { return m.decodeErr }

// Reset rewinds the source to the beginning, where no static has an
// address yet.
func (m *MemSource) Reset() {
	m.pos, m.c, m.win = 0, cursor{}, nil
	clear(m.last)
}
