package sweep

import (
	"sync"

	"waycache/internal/core"
)

// Backend is pluggable storage for completed simulation results, keyed by
// core.Config.Key's canonical string. The Store layers in-flight
// deduplication and error memoization on top of any Backend; Memory is the
// trivial in-process implementation, resultdb.DB the durable on-disk one,
// and Tiered composes the two so memory fronts disk.
//
// Implementations must be safe for concurrent use. Results flowing through
// a Backend are treated as immutable: Get may return a pointer shared with
// other callers.
type Backend interface {
	// Get returns the stored result for key; found is false when the key
	// has never been stored. err reports storage failures (I/O, decode),
	// never absence.
	Get(key string) (res *core.Result, found bool, err error)
	// Put stores the result for key. Keys are write-once: storing an
	// already-present key is a no-op, not an error.
	Put(key string, res *core.Result) error
	// Len returns the number of stored results.
	Len() int
}

// Scanner is the optional Backend extension for enumerating stored
// results in a deterministic (insertion) order; Store.Records, and through
// it the query endpoints of the HTTP service, are built on it.
type Scanner interface {
	Scan(fn func(key string, res *core.Result) error) error
}

// EncodedPutter is the optional Backend extension for bulk-ingesting
// results that already exist in core.EncodeResult's canonical byte form —
// the shape remote waycached hosts export shards in. Implementations
// (resultdb.DB) validate and append the provided bytes directly, skipping
// the decode/re-encode round trip; the stored payload is then exactly
// what the remote computed.
type EncodedPutter interface {
	PutEncoded(key string, payload []byte) error
}

// PutEncoded stores one canonically-encoded result into b, using the
// backend's native encoded path when it has one and decoding otherwise.
// Like Put, keys are write-once: an already-present key is a no-op.
func PutEncoded(b Backend, key string, payload []byte) error {
	if ep, ok := b.(EncodedPutter); ok {
		return ep.PutEncoded(key, payload)
	}
	res, err := core.DecodeResult(payload)
	if err != nil {
		return err
	}
	return b.Put(key, res)
}

// Memory is the in-memory Backend: a map guarded by a mutex. It never
// returns an error.
type Memory struct {
	mu   sync.RWMutex //wclint:lockrank 45
	m    map[string]*core.Result
	keys []string // insertion order, for deterministic Scan
}

// NewMemory returns an empty in-memory backend.
func NewMemory() *Memory {
	return &Memory{m: make(map[string]*core.Result)}
}

// Get implements Backend.
func (b *Memory) Get(key string) (*core.Result, bool, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	res, found := b.m[key]
	return res, found, nil
}

// Put implements Backend.
func (b *Memory) Put(key string, res *core.Result) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, dup := b.m[key]; dup {
		return nil
	}
	b.m[key] = res
	b.keys = append(b.keys, key)
	return nil
}

// Len implements Backend.
func (b *Memory) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.m)
}

// Scan implements Scanner: results are visited in insertion order.
func (b *Memory) Scan(fn func(key string, res *core.Result) error) error {
	b.mu.RLock()
	keys := make([]string, len(b.keys))
	copy(keys, b.keys)
	b.mu.RUnlock()
	for _, key := range keys {
		res, found, _ := b.Get(key)
		if !found {
			continue
		}
		if err := fn(key, res); err != nil {
			return err
		}
	}
	return nil
}

// Tiered layers a fast front backend over a durable back one — typically
// Memory over resultdb.DB, so repeated lookups in one process never touch
// disk while every fresh result still lands in the log.
type Tiered struct {
	Front, Back Backend
}

// Get checks the front tier first, then the back, promoting back-tier hits
// into the front so the next lookup is served from memory.
func (t Tiered) Get(key string) (*core.Result, bool, error) {
	if res, found, err := t.Front.Get(key); found || err != nil {
		return res, found, err
	}
	res, found, err := t.Back.Get(key)
	if err != nil || !found {
		return nil, false, err
	}
	// Best-effort promotion: the result is good either way; a front-tier
	// (cache) failure only costs the next lookup a disk read.
	_ = t.Front.Put(key, res)
	return res, true, nil
}

// Put stores to the durable back tier first, then the front; the back
// tier's error, if any, is the one that matters and is returned.
func (t Tiered) Put(key string, res *core.Result) error {
	err := t.Back.Put(key, res)
	if ferr := t.Front.Put(key, res); err == nil && ferr != nil {
		err = ferr
	}
	return err
}

// PutEncoded stores canonical bytes to the durable back tier natively and
// decodes them for the front, mirroring Put's back-then-front order.
func (t Tiered) PutEncoded(key string, payload []byte) error {
	err := PutEncoded(t.Back, key, payload)
	res, derr := core.DecodeResult(payload)
	if derr != nil {
		if err == nil {
			err = derr
		}
		return err
	}
	if ferr := t.Front.Put(key, res); err == nil && ferr != nil {
		err = ferr
	}
	return err
}

// Len reports the larger tier: the back normally holds a superset of the
// front (Put writes both, promotions copy upward).
func (t Tiered) Len() int {
	f, b := t.Front.Len(), t.Back.Len()
	if f > b {
		return f
	}
	return b
}

// Scan enumerates the back (durable, superset) tier when it supports
// scanning, the front otherwise.
func (t Tiered) Scan(fn func(key string, res *core.Result) error) error {
	if s, ok := t.Back.(Scanner); ok {
		return s.Scan(fn)
	}
	if s, ok := t.Front.(Scanner); ok {
		return s.Scan(fn)
	}
	return nil
}
