// Package resultdb is the crash-safe on-disk simulation-result store: an
// append-only log of canonically-encoded core.Result records keyed by
// core.Config.Key, plus a sidecar index that makes reopening large stores
// cheap. It is the durable tier behind sweep's memoization — repeated CLI
// runs and the waycached service recall finished configurations from disk
// instead of re-simulating them.
//
// # On-disk layout
//
// A store is a directory holding two files (byte-level spec in
// docs/HTTP_API.md):
//
//	results.log   append-only record log (the source of truth)
//	results.idx   key -> offset index snapshot (an optimization only)
//
// The log opens with the magic "WCRD" and a one-byte format version, then
// holds zero or more records:
//
//	uvarint keyLen | key | uvarint payloadLen | payload | crc32(key+payload)
//
// where payload is core.EncodeResult's canonical bytes and the CRC-32
// (IEEE, little-endian) closes the record. Records are immutable once
// written; a live key is never written twice. A record with payloadLen 0
// is a tombstone: it marks the key's earlier record dead (Delete), after
// which the key may be written again — supersession is a tombstone
// followed by a fresh record.
//
// # Compaction
//
// Tombstoned and superseded records stay in the log as garbage until
// Compact rewrites the live records — byte-for-byte, in their original
// order — into a fresh log that atomically replaces the old one
// (temp file + fsync + rename, with the new file flock'd before the
// swap). Close compacts automatically when garbage exceeds both an
// absolute floor and a quarter of the log. Garbage is derived, not
// tracked on faith: it is exactly the log size minus the header and the
// live records' sizes, so accounting can never drift from the file.
//
// # Scanning
//
// Scan hands every stored result to a callback in log order, which is
// how a query corpus is filled. It snapshots the keys, then reads them
// under the lock in chunks of consecutive keys of at most 256 KiB of
// payload. Chunks are decoded on GOMAXPROCS workers while the callback
// consumes earlier ones on the caller's goroutine, and at most workers+2 chunks are in flight, so the
// memory a scan holds does not grow with the store. Every chunk looks its
// keys up afresh, so Put, Delete and Compact may run during a scan: a key
// deleted since the snapshot is skipped, and a compaction between chunks
// never serves stale offsets.
//
// # Crash safety
//
// Every Put appends one record and the log is never rewritten, so a crash
// can only damage the tail. Open scans forward validating lengths and
// checksums; the first torn or corrupt record marks the end of the valid
// prefix, the file is truncated there, and the store resumes appending —
// losing at most the writes that had not fully reached the log. The index
// file is written atomically (temp file + rename) on Close and merely
// accelerates Open: a missing, stale, or corrupt index triggers a full log
// scan, never data loss.
//
// Durability: writes reach the kernel without fsync (only Compact syncs,
// before its rename), so SIGKILL loses no acknowledged write but power
// loss or an OS crash can, and Open then truncates to the intact prefix.
// Callers whose writes must survive power loss call Sync; none here do,
// because a lost result is a deterministic re-simulation.
//
// A store directory is single-writer: Open takes an exclusive advisory
// lock (flock on unix) on the log for the life of the DB, so concurrent
// processes sharing a directory fail fast instead of interleaving
// appends. The lock dies with the process; sequential sharing across
// sweep, experiments, cachesim and waycached needs no cleanup.
package resultdb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"waycache/internal/core"
)

// Magic identifies a result log; MagicIndex a sidecar index. Each is
// followed by a one-byte format version, mirroring the .wct trace format.
const (
	Magic      = "WCRD"
	MagicIndex = "WCRI"
)

// FormatVersion is the log and index encoding version this package
// writes. Version 2 added tombstone records (payloadLen 0, previously
// rejected as implausible); version-1 logs are still read — they are a
// strict subset — but version-1 readers refuse version-2 logs outright
// instead of mistaking a tombstone for a torn tail.
const FormatVersion = 2

// LogName and IndexName are the file names inside a store directory.
const (
	LogName   = "results.log"
	IndexName = "results.idx"
)

// keyCap and payloadCap bound record fields so a corrupt length prefix is
// detected instead of driving a huge allocation. Keys are canonical config
// strings (hundreds of bytes); payloads canonical JSON results (a few KB).
const (
	keyCap     = 1 << 16
	payloadCap = 1 << 24
)

// span locates one record's payload inside the log.
type span struct {
	off int64 // payload offset
	n   int64 // payload length
}

// DB is an open result store. It is safe for concurrent use.
type DB struct {
	mu        sync.Mutex //wclint:lockrank 50
	dir       string
	f         *os.File
	size      int64 // end of the validated log == append offset
	index     map[string]span
	keys      []string // insertion (log) order, for deterministic Scan
	liveBytes int64    // total size of live records; garbage = size - header - liveBytes
}

// recordBytes is the encoded size of one record with the given key and
// payload lengths — the unit garbage accounting and compaction both use.
func recordBytes(keyLen int, payloadLen int64) int64 {
	return int64(uvarintLen(uint64(keyLen))) + int64(keyLen) +
		int64(uvarintLen(uint64(payloadLen))) + payloadLen + 4
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Open opens the store in dir, creating the directory and an empty log as
// needed, and recovers from a torn tail by truncating the log to its last
// intact record.
func Open(dir string) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultdb: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, LogName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("resultdb: %w", err)
	}
	// One writer at a time: concurrent processes appending with
	// independent offsets would interleave records and corrupt the log.
	if err := lockLog(f); err != nil {
		f.Close()
		return nil, err
	}
	db := &DB{dir: dir, f: f, index: make(map[string]span)}
	if err := db.load(); err != nil {
		f.Close()
		return nil, err
	}
	return db, nil
}

// load validates the log header, replays the index snapshot when it is
// usable, scans any records beyond it, and truncates a damaged tail.
func (db *DB) load() error {
	st, err := db.f.Stat()
	if err != nil {
		return fmt.Errorf("resultdb: %w", err)
	}
	headerLen := int64(len(Magic) + 1)
	if st.Size() == 0 {
		var hdr []byte
		hdr = append(hdr, Magic...)
		hdr = append(hdr, FormatVersion)
		if _, err := db.f.Write(hdr); err != nil {
			return fmt.Errorf("resultdb: writing log header: %w", err)
		}
		db.size = headerLen
		return nil
	}
	if st.Size() < headerLen {
		return fmt.Errorf("resultdb: %s is not a result log (too short)", LogName)
	}
	hdr := make([]byte, headerLen)
	if _, err := db.f.ReadAt(hdr, 0); err != nil {
		return fmt.Errorf("resultdb: reading log header: %w", err)
	}
	if string(hdr[:len(Magic)]) != Magic {
		return fmt.Errorf("resultdb: %s has bad magic %q (not a result log)", LogName, hdr[:len(Magic)])
	}
	if v := hdr[len(Magic)]; v != FormatVersion && v != 1 {
		return fmt.Errorf("resultdb: unsupported log format version %d (reader speaks %d)", v, FormatVersion)
	}
	db.size = headerLen

	// Fast path: replay the index snapshot, then scan only the records it
	// does not cover. Any defect in the index falls back to a full scan —
	// the log alone is authoritative.
	if covered, ok := db.loadIndex(st.Size()); ok {
		db.size = covered
	}
	if err := db.scan(st.Size()); err != nil {
		return err
	}
	// A torn tail (or an index describing records past a truncated log's
	// end, which loadIndex rejects) leaves db.size < file size: cut the
	// damage so future appends extend the valid prefix.
	if db.size < st.Size() {
		if err := db.f.Truncate(db.size); err != nil {
			return fmt.Errorf("resultdb: truncating torn log tail: %w", err)
		}
	}
	return nil
}

// scan reads records from db.size to end, extending the index; it stops —
// without error — at the first torn or corrupt record, leaving db.size at
// the end of the valid prefix. Tombstones (payloadLen 0) kill the key's
// live record; a later record under a killed key revives it, which is how
// supersession replays.
func (db *DB) scan(end int64) error {
	base := db.size
	r := io.NewSectionReader(db.f, base, end-base)
	br := &countingReader{r: r}
	for {
		start := base + br.n
		key, sp, err := readRecord(br, start)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			// Torn or corrupt tail: everything before this record is intact.
			return nil
		}
		switch old, live := db.index[key]; {
		case sp.n == 0: // tombstone
			if live {
				delete(db.index, key)
				db.removeKeyLocked(key)
				db.liveBytes -= recordBytes(len(key), old.n)
			}
		case !live:
			db.index[key] = sp
			db.keys = append(db.keys, key)
			db.liveBytes += recordBytes(len(key), sp.n)
		}
		db.size = sp.off + sp.n + 4 // payload end + crc = end of this record
	}
}

// removeKeyLocked drops key from the insertion-order slice.
func (db *DB) removeKeyLocked(key string) {
	for i, k := range db.keys {
		if k == key {
			db.keys = append(db.keys[:i], db.keys[i+1:]...)
			return
		}
	}
}

// countingReader tracks how many bytes have been consumed, so record spans
// can be computed from a stream position.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) ReadByte() (byte, error) {
	var b [1]byte
	_, err := io.ReadFull(c, b[:])
	return b[0], err
}

// readRecord decodes one record starting at absolute log offset start.
// io.EOF means a clean end of log; any other error a torn/corrupt record.
func readRecord(br *countingReader, start int64) (key string, sp span, err error) {
	consumedAtStart := br.n
	klen, err := binary.ReadUvarint(br)
	if err != nil {
		if err == io.EOF {
			return "", span{}, io.EOF
		}
		return "", span{}, fmt.Errorf("resultdb: key length: %w", err)
	}
	if klen == 0 || klen > keyCap {
		return "", span{}, fmt.Errorf("resultdb: implausible key length %d", klen)
	}
	kbuf := make([]byte, klen)
	if _, err := io.ReadFull(br, kbuf); err != nil {
		return "", span{}, fmt.Errorf("resultdb: key: %w", err)
	}
	plen, err := binary.ReadUvarint(br)
	if err != nil {
		return "", span{}, fmt.Errorf("resultdb: payload length: %w", err)
	}
	// plen 0 is a tombstone (span.n 0), not corruption.
	if plen > payloadCap {
		return "", span{}, fmt.Errorf("resultdb: implausible payload length %d", plen)
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(br, payload); err != nil {
		return "", span{}, fmt.Errorf("resultdb: payload: %w", err)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
		return "", span{}, fmt.Errorf("resultdb: checksum: %w", err)
	}
	crc := crc32.NewIEEE()
	crc.Write(kbuf)
	crc.Write(payload)
	if binary.LittleEndian.Uint32(crcBuf[:]) != crc.Sum32() {
		return "", span{}, fmt.Errorf("resultdb: checksum mismatch at offset %d", start)
	}
	payloadOff := start + (br.n - consumedAtStart) - 4 - int64(plen)
	return string(kbuf), span{off: payloadOff, n: int64(plen)}, nil
}

// appendRecord encodes one record's bytes.
func appendRecord(key string, payload []byte) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(key)))
	buf = append(buf, key...)
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	crc := crc32.NewIEEE()
	crc.Write([]byte(key))
	crc.Write(payload)
	buf = binary.LittleEndian.AppendUint32(buf, crc.Sum32())
	return buf
}

// Get returns the stored result for key, decoding it from the log. found
// is false when the key has never been Put (or was deleted).
func (db *DB) Get(key string) (res *core.Result, found bool, err error) {
	payload, ok, err := db.GetEncoded(key)
	if !ok || err != nil {
		return nil, false, err
	}
	r, err := core.DecodeResult(payload)
	if err != nil {
		return nil, false, fmt.Errorf("resultdb: %w", err)
	}
	return r, true, nil
}

// GetEncoded returns the stored payload for key exactly as written —
// core.EncodeResult's canonical bytes — without decoding. It is what
// compaction round-trip checks compare. The read happens under the lock
// because Compact swaps the log file handle out from under stale spans.
func (db *DB) GetEncoded(key string) (payload []byte, found bool, err error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	sp, ok := db.index[key]
	if !ok {
		return nil, false, nil
	}
	payload = make([]byte, sp.n)
	if _, err := db.f.ReadAt(payload, sp.off); err != nil {
		return nil, false, fmt.Errorf("resultdb: reading record: %w", err)
	}
	return payload, true, nil
}

// Put appends the result for key. Keys are write-once: a key already in
// the store is left untouched (results are deterministic per key, so the
// first record is as good as any rewrite).
func (db *DB) Put(key string, res *core.Result) error {
	payload, err := core.EncodeResult(res)
	if err != nil {
		return err
	}
	return db.putPayload(key, payload)
}

// PutEncoded appends a result that already exists in core.EncodeResult's
// canonical byte form — the bulk-ingest path for shard results computed by
// remote hosts. The payload is validated (it must decode) and then stored
// byte-for-byte as provided, so the log holds exactly what the remote
// computed, with no decode/re-encode round trip. Keys are write-once, as
// with Put.
func (db *DB) PutEncoded(key string, payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("resultdb: empty payload for key %q", key)
	}
	if len(payload) > payloadCap {
		return fmt.Errorf("resultdb: payload for key %q is %d bytes (cap %d)", key, len(payload), payloadCap)
	}
	if _, err := core.DecodeResult(payload); err != nil {
		return fmt.Errorf("resultdb: rejecting undecodable payload for key %q: %w", key, err)
	}
	return db.putPayload(key, payload)
}

// putPayload appends one validated record.
func (db *DB) putPayload(key string, payload []byte) error {
	if key == "" {
		return fmt.Errorf("resultdb: empty key")
	}
	if len(key) > keyCap {
		return fmt.Errorf("resultdb: key is %d bytes (cap %d)", len(key), keyCap)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.index[key]; dup {
		return nil
	}
	rec := appendRecord(key, payload)
	if _, err := db.f.WriteAt(rec, db.size); err != nil {
		return fmt.Errorf("resultdb: appending record: %w", err)
	}
	off := db.size + int64(len(rec)) - 4 - int64(len(payload))
	db.size += int64(len(rec))
	db.index[key] = span{off: off, n: int64(len(payload))}
	db.keys = append(db.keys, key)
	db.liveBytes += int64(len(rec))
	return nil
}

// Delete appends a tombstone for key and drops it from the store. It
// returns false — writing nothing — when the key is not present. A
// deleted key may be Put again (supersession); the dead record and its
// tombstone count as garbage until Compact reclaims them.
func (db *DB) Delete(key string) (bool, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	sp, ok := db.index[key]
	if !ok {
		return false, nil
	}
	rec := appendRecord(key, nil)
	if _, err := db.f.WriteAt(rec, db.size); err != nil {
		return false, fmt.Errorf("resultdb: appending tombstone: %w", err)
	}
	db.size += int64(len(rec))
	delete(db.index, key)
	db.removeKeyLocked(key)
	db.liveBytes -= recordBytes(len(key), sp.n)
	return true, nil
}

// Garbage reports the dead bytes in the log — tombstones, the records
// they killed, and superseded records — i.e. what Compact would reclaim.
func (db *DB) Garbage() int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.garbageLocked()
}

func (db *DB) garbageLocked() int64 {
	return db.size - int64(len(Magic)+1) - db.liveBytes
}

// CompactStats reports what one compaction accomplished.
type CompactStats struct {
	Live      int   `json:"live"`           // records carried into the new log
	Before    int64 `json:"beforeBytes"`    // log size before
	After     int64 `json:"afterBytes"`     // log size after
	Reclaimed int64 `json:"reclaimedBytes"` // Before - After
}

// Compact rewrites the live records — byte-for-byte, in log order — into
// a fresh log that atomically replaces the current one, reclaiming all
// garbage. The store stays open and usable throughout; on any failure the
// original log is untouched. The index snapshot is refreshed immediately
// after the swap so a stale sidecar can never describe the new layout.
func (db *DB) Compact() (CompactStats, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.compactLocked()
}

func (db *DB) compactLocked() (CompactStats, error) {
	stats := CompactStats{Live: len(db.keys), Before: db.size}
	tmpPath := filepath.Join(db.dir, LogName+".compact")
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return stats, fmt.Errorf("resultdb: compact: %w", err)
	}
	fail := func(err error) (CompactStats, error) {
		tmp.Close()
		os.Remove(tmpPath)
		return stats, err
	}
	// Lock the replacement before it becomes results.log: renaming first
	// would open a window where a concurrent Open could flock the new
	// inode while we still think we are the single writer.
	if err := lockLog(tmp); err != nil {
		return fail(err)
	}
	w := bufio.NewWriterSize(tmp, 1<<20)
	if _, err := w.Write(append([]byte(Magic), FormatVersion)); err != nil {
		return fail(fmt.Errorf("resultdb: compact: %w", err))
	}
	written := int64(len(Magic) + 1)
	newIndex := make(map[string]span, len(db.keys))
	for _, key := range db.keys {
		sp := db.index[key]
		payload := make([]byte, sp.n)
		if _, err := db.f.ReadAt(payload, sp.off); err != nil {
			return fail(fmt.Errorf("resultdb: compact: reading %q: %w", key, err))
		}
		rec := appendRecord(key, payload)
		if _, err := w.Write(rec); err != nil {
			return fail(fmt.Errorf("resultdb: compact: %w", err))
		}
		written += int64(len(rec))
		newIndex[key] = span{off: written - 4 - sp.n, n: sp.n}
	}
	if err := w.Flush(); err != nil {
		return fail(fmt.Errorf("resultdb: compact: %w", err))
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("resultdb: compact: %w", err))
	}
	if err := os.Rename(tmpPath, filepath.Join(db.dir, LogName)); err != nil {
		return fail(fmt.Errorf("resultdb: compact: installing new log: %w", err))
	}
	db.f.Close() // the old handle (and its lock) die with the old inode
	db.f = tmp
	db.size = written
	db.index = newIndex
	db.liveBytes = written - int64(len(Magic)+1)
	stats.After = db.size
	stats.Reclaimed = stats.Before - stats.After
	return stats, db.writeIndexLocked()
}

// Len returns the number of stored results.
func (db *DB) Len() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.index)
}

// Keys returns every stored key in log (insertion) order.
func (db *DB) Keys() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]string, len(db.keys))
	copy(out, db.keys)
	return out
}

// Sync flushes the log to stable storage.
func (db *DB) Sync() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.f.Sync()
}

// autoCompact* gate compaction on Close: a rewrite is worth its IO only
// when the dead bytes are both substantial and a meaningful fraction of
// the log.
const (
	autoCompactMinBytes = 1 << 20
	autoCompactFraction = 4 // garbage >= size/4
)

// Close writes the index snapshot and closes the log, compacting first
// when accumulated garbage crosses the auto-compact threshold. The store
// remains reopenable — and loses nothing — if Close is never called; the
// snapshot only speeds up the next Open.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	var err error
	if g := db.garbageLocked(); g >= autoCompactMinBytes && g*autoCompactFraction >= db.size {
		_, err = db.compactLocked()
	}
	if ierr := db.writeIndexLocked(); err == nil {
		err = ierr
	}
	if cerr := db.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Index file format (after "WCRI" + version byte):
//
//	uvarint coveredLogSize | uvarint n | n x (uvarint keyLen | key |
//	    uvarint payloadOff | uvarint payloadLen) | crc32(body)
//
// coveredLogSize is the log length the entries describe; Open scans the
// log from there so an index lagging the log (crash between Put and
// Close) just means a short catch-up scan. The trailing CRC-32 (over
// everything after magic+version) plus the atomic rename keeps a torn
// index from ever being trusted.

func (db *DB) writeIndexLocked() error {
	body := binary.AppendUvarint(nil, uint64(db.size))
	body = binary.AppendUvarint(body, uint64(len(db.keys)))
	for _, key := range db.keys {
		sp := db.index[key]
		body = binary.AppendUvarint(body, uint64(len(key)))
		body = append(body, key...)
		body = binary.AppendUvarint(body, uint64(sp.off))
		body = binary.AppendUvarint(body, uint64(sp.n))
	}
	buf := append([]byte(MagicIndex), FormatVersion)
	buf = append(buf, body...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(body))

	tmp := filepath.Join(db.dir, IndexName+".tmp")
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return fmt.Errorf("resultdb: writing index: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(db.dir, IndexName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("resultdb: installing index: %w", err)
	}
	return nil
}

// loadIndex replays the index snapshot if it is intact and consistent with
// a log of logSize bytes, returning the log size it covers. ok=false means
// "ignore the index and scan the whole log".
func (db *DB) loadIndex(logSize int64) (covered int64, ok bool) {
	data, err := os.ReadFile(filepath.Join(db.dir, IndexName))
	if err != nil {
		return 0, false
	}
	pre := len(MagicIndex) + 1
	if len(data) < pre+4 || string(data[:len(MagicIndex)]) != MagicIndex || data[len(MagicIndex)] != FormatVersion {
		return 0, false
	}
	body, crcBuf := data[pre:len(data)-4], data[len(data)-4:]
	if binary.LittleEndian.Uint32(crcBuf) != crc32.ChecksumIEEE(body) {
		return 0, false
	}
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(body)
		if n <= 0 {
			return 0, false
		}
		body = body[n:]
		return v, true
	}
	cov, ok1 := next()
	n, ok2 := next()
	// An index claiming to cover more log than exists (the log was
	// truncated behind our back, e.g. by tail recovery on another open)
	// could point entries past EOF; distrust it entirely.
	if !ok1 || !ok2 || int64(cov) > logSize || n > uint64(payloadCap) {
		return 0, false
	}
	index := make(map[string]span, n)
	keys := make([]string, 0, n)
	var live int64
	for i := uint64(0); i < n; i++ {
		klen, ok := next()
		if !ok || klen == 0 || klen > keyCap || uint64(len(body)) < klen {
			return 0, false
		}
		key := string(body[:klen])
		body = body[klen:]
		off, ok1 := next()
		plen, ok2 := next()
		if !ok1 || !ok2 || plen == 0 || plen > payloadCap || int64(off)+int64(plen) > int64(cov) {
			return 0, false
		}
		if _, dup := index[key]; dup {
			return 0, false
		}
		index[key] = span{off: int64(off), n: int64(plen)}
		keys = append(keys, key)
		live += recordBytes(int(klen), int64(plen))
	}
	db.index = index
	db.keys = keys
	db.liveBytes = live
	return int64(cov), true
}
