// Package resultdb is the crash-safe on-disk simulation-result store: an
// append-only log of canonically-encoded core.Result records keyed by
// core.Config.Key. It is the durable tier behind sweep's memoization —
// repeated CLI runs and the waycached service recall finished
// configurations from disk instead of re-simulating them.
//
// # On-disk layout
//
// A store is a directory holding one file, results.log (byte-level spec
// in docs/HTTP_API.md). The log opens with the magic "WCRD" and a
// one-byte format version, then holds zero or more records:
//
//	uvarint keyLen | key | uvarint payloadLen | payload | crc32(key+payload)
//
// where payload is core.EncodeResult's canonical bytes and the CRC-32
// (IEEE, little-endian) closes the record. A result is a pure function of
// its key, so keys are write-once: Put ignores a key the store already
// holds, and no run-time path rewrites or deletes a record. The log
// therefore never holds garbage, and the log alone is the store.
//
// A record with payloadLen 0 is a tombstone. Nothing writes one any more,
// but logs written by older builds may hold them, and Open replays them:
// a tombstone kills the key's earlier record, and a later record under
// the key revives it at the later record's place in log order.
//
// # Scanning
//
// Scan hands every stored result to a callback in log order, which is
// how a query corpus is filled. It snapshots the stored records, then
// reads them in chunks of consecutive records of at most 256 KiB of
// payload. Chunks are decoded on GOMAXPROCS workers while the callback
// consumes earlier ones on the caller's goroutine, and at most workers+2
// chunks are in flight, so the memory a scan holds does not grow with the
// store. A record never moves once written, so Put may run during a scan
// and the snapshot's offsets stay valid.
//
// # Crash safety
//
// Every Put appends one record and the log is never rewritten, so a crash
// can only damage the tail. Open scans the whole log forward, validating
// lengths and checksums; the first torn or corrupt record marks the end
// of the valid prefix, the file is truncated there, and the store resumes
// appending — losing at most the writes that had not fully reached the
// log.
//
// Durability: writes reach the kernel without fsync, so SIGKILL loses no
// acknowledged write but power loss or an OS crash can, and Open then
// truncates to the intact prefix. Callers whose writes must survive power
// loss call Sync; none here do, because a lost result is a deterministic
// re-simulation.
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
	"slices"
	"sync"

	"waycache/internal/core"
)

// Magic identifies a result log. It is followed by a one-byte format
// version, mirroring the .wct trace format.
const Magic = "WCRD"

// FormatVersion is the log encoding version this package writes. Version
// 2 added tombstone records (payloadLen 0, previously rejected as
// implausible); version-1 logs are still read — they are a strict subset
// — but version-1 readers refuse version-2 logs outright instead of
// mistaking a tombstone for a torn tail.
const FormatVersion = 2

// LogName is the log's file name inside a store directory.
const LogName = "results.log"

// keyCap and payloadCap bound record fields so a corrupt length prefix is
// detected instead of driving a huge allocation. Keys are canonical config
// strings (hundreds of bytes); payloads canonical JSON results (a few KB).
const (
	keyCap     = 1 << 16
	payloadCap = 1 << 24
)

// scanBufBytes is Open's read buffer. It holds at least keyCap bytes, so
// a whole key is always one Peek.
const scanBufBytes = 64 << 10

// span locates one record's payload inside the log.
type span struct {
	off int64 // payload offset
	n   int64 // payload length
}

// entry is one stored record: its key and where its payload lies.
type entry struct {
	key string
	span
}

// DB is an open result store. It is safe for concurrent use.
type DB struct {
	mu    sync.Mutex //wclint:lockrank 50
	f     *os.File
	size  int64 // end of the validated log == append offset
	index map[string]span
	log   []entry // stored records in log order; only appended to once open
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
	db := &DB{f: f, index: make(map[string]span)}
	if err := db.load(); err != nil {
		f.Close()
		return nil, err
	}
	return db, nil
}

// load validates the log header, replays every record, and truncates a
// damaged tail.
func (db *DB) load() error {
	st, err := db.f.Stat()
	if err != nil {
		return fmt.Errorf("resultdb: %w", err)
	}
	headerLen := int64(len(Magic) + 1)
	if st.Size() == 0 {
		if _, err := db.f.Write(append([]byte(Magic), FormatVersion)); err != nil {
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
	db.scan(st.Size())
	// A torn tail leaves db.size < file size: cut the damage so future
	// appends extend the valid prefix.
	if db.size < st.Size() {
		if err := db.f.Truncate(db.size); err != nil {
			return fmt.Errorf("resultdb: truncating torn log tail: %w", err)
		}
	}
	return nil
}

// scan replays the records from db.size to end, stopping at the first
// torn or corrupt one with db.size at the end of the valid prefix. A
// tombstone (payloadLen 0) kills the key's stored record; a later record
// under a killed key revives it.
func (db *DB) scan(end int64) {
	br := bufio.NewReaderSize(io.NewSectionReader(db.f, db.size, end-db.size), scanBufBytes)
	for {
		key, plen, n, ok := readRecord(br)
		if !ok {
			return
		}
		switch _, live := db.index[key]; {
		case plen == 0: // a tombstone from an older build
			if live {
				delete(db.index, key)
				db.log = slices.DeleteFunc(db.log, func(e entry) bool { return e.key == key })
			}
		case !live:
			sp := span{off: db.size + n - 4 - plen, n: plen}
			db.index[key] = sp
			db.log = append(db.log, entry{key, sp})
		}
		db.size += n
	}
}

// readRecord decodes the record at br's position and returns its key,
// its payload length and its length n in bytes. The payload is checked
// against the record's CRC in place, never copied. ok is false at the end
// of the log and at a torn or corrupt record alike.
func readRecord(br *bufio.Reader) (key string, plen, n int64, ok bool) {
	uvarint := func() (uint64, bool) {
		b, _ := br.Peek(binary.MaxVarintLen64) // fewer bytes near the end
		v, k := binary.Uvarint(b)
		if k <= 0 {
			return 0, false
		}
		br.Discard(k)
		n += int64(k)
		return v, true
	}
	klen, ok := uvarint()
	if !ok || klen == 0 || klen > keyCap {
		return "", 0, 0, false
	}
	kb, err := br.Peek(int(klen))
	if err != nil {
		return "", 0, 0, false
	}
	crc := crc32.ChecksumIEEE(kb)
	key = string(kb)
	br.Discard(len(kb))
	n += int64(klen)
	// payloadLen 0 is a tombstone, not corruption.
	p, ok := uvarint()
	if !ok || p > payloadCap {
		return "", 0, 0, false
	}
	plen = int64(p)
	for rest := plen; rest > 0; {
		b, err := br.Peek(int(min(rest, int64(br.Size()))))
		if err != nil {
			return "", 0, 0, false
		}
		crc = crc32.Update(crc, crc32.IEEETable, b)
		br.Discard(len(b))
		rest -= int64(len(b))
	}
	sum, err := br.Peek(4)
	if err != nil || binary.LittleEndian.Uint32(sum) != crc {
		return "", 0, 0, false
	}
	br.Discard(4)
	return key, plen, n + plen + 4, true
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
// is false when the key has never been Put.
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
// core.EncodeResult's canonical bytes — without decoding. A record never
// moves once written, so only the lookup holds the lock.
func (db *DB) GetEncoded(key string) (payload []byte, found bool, err error) {
	db.mu.Lock()
	sp, ok := db.index[key]
	db.mu.Unlock()
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
	sp := span{off: db.size + int64(len(rec)) - 4 - int64(len(payload)), n: int64(len(payload))}
	db.size += int64(len(rec))
	db.index[key] = sp
	db.log = append(db.log, entry{key, sp})
	return nil
}

// Len returns the number of stored results.
func (db *DB) Len() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.log)
}

// Keys returns every stored key in log (insertion) order.
func (db *DB) Keys() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]string, len(db.log))
	for i, e := range db.log {
		out[i] = e.key
	}
	return out
}

// Sync flushes the log to stable storage.
func (db *DB) Sync() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.f.Sync()
}

// Close closes the log. Every Put is in the log when it returns, so a
// store that is never closed loses nothing.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.f.Close()
}
