package resultdb

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"waycache/internal/core"
)

// scanChunkBytes bounds the payload bytes of one Scan chunk (a chunk always
// holds at least one key, so a single larger payload makes its own chunk).
const scanChunkBytes = 1 << 18

// chunk is a run of consecutive snapshot keys on its way through Scan:
// read under the lock, decoded, then delivered to fn. Chunks are reused,
// buffers included.
type chunk struct {
	keys  []string // a window of the key snapshot
	spans []span   // each key's payload in buf; n == 0: deleted since the snapshot
	buf   []byte
	res   []*core.Result
	stop  int   // entries before the first error, len(keys) if none
	err   error // the first read or decode error, at keys[stop]
	ready chan struct{}
}

// Scan decodes every stored result and calls fn for each, in log order and
// on the calling goroutine, so fn needs no locking. A non-nil return from
// fn stops the scan and is returned as is. The first read or decode error
// in log order stops it too, after fn has seen exactly the entries before
// it.
//
// Scan snapshots the keys once and walks them in chunks of consecutive
// keys holding about scanChunkBytes of payload. Each chunk is read under
// the lock, one payload at a time into the chunk's buffer, so it sees
// exactly the bytes GetEncoded would at that moment. A key deleted after the snapshot is
// skipped, a key superseded after it is delivered with its new value at
// its old place, and a Compact between chunks is harmless because every
// chunk looks its spans up afresh. GOMAXPROCS(0) workers decode chunks
// while fn consumes earlier ones; at most workers+2 chunks are in flight,
// so memory stays bounded whatever the store's size. With GOMAXPROCS 1
// the caller decodes each chunk itself. No goroutine outlives Scan.
func (db *DB) Scan(fn func(key string, res *core.Result) error) error {
	keys := db.Keys()
	window, todo := 1, chan *chunk(nil)
	if workers := runtime.GOMAXPROCS(0); workers > 1 {
		window = workers + 2
		todo = make(chan *chunk, window) // sized to the chunks in flight: sends never block
		var wg sync.WaitGroup
		wg.Add(workers)
		for range workers {
			go func() {
				defer wg.Done()
				for c := range todo {
					c.decode()
					c.ready <- struct{}{}
				}
			}()
		}
		defer func() { close(todo); wg.Wait() }()
	}
	var inflight, free []*chunk // inflight in log order
	for next := 0; next < len(keys) || len(inflight) > 0; {
		for len(inflight) < window && next < len(keys) {
			var c *chunk
			if n := len(free); n > 0 {
				c, free = free[n-1], free[:n-1]
			} else {
				c = &chunk{ready: make(chan struct{}, 1)}
			}
			next = db.readChunk(c, keys, next)
			if todo == nil {
				c.decode()
			} else {
				todo <- c
			}
			inflight = append(inflight, c)
		}
		c := inflight[0]
		inflight = inflight[1:]
		if todo != nil {
			<-c.ready
		}
		if err := c.deliver(fn); err != nil {
			return err
		}
		free = append(free, c)
	}
	return nil
}

// readChunk loads into c the keys from keys[lo:] whose payloads, as the
// index holds them now, fit in scanChunkBytes, and returns where the next
// chunk starts. Each payload is read on its own, which pins a read error
// on its key.
func (db *DB) readChunk(c *chunk, keys []string, lo int) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	c.spans, c.err = c.spans[:0], nil
	var payload int64
	hi := lo
	for ; hi < len(keys); hi++ {
		sp := db.index[keys[hi]] // the zero span once deleted
		if payload > 0 && payload+sp.n > scanChunkBytes {
			break
		}
		payload += sp.n
		c.spans = append(c.spans, sp)
	}
	c.keys, c.stop = keys[lo:hi], hi-lo
	c.res = slices.Grow(c.res[:0], hi-lo)[:hi-lo]
	c.buf = slices.Grow(c.buf[:0], int(payload))[:payload]
	var at int64
	for i, sp := range c.spans {
		if sp.n == 0 {
			continue
		}
		if _, err := db.f.ReadAt(c.buf[at:at+sp.n], sp.off); err != nil {
			c.stop, c.err = i, fmt.Errorf("resultdb: reading record: %w", err)
			break
		}
		c.spans[i].off = at
		at += sp.n
	}
	return hi
}

// decode decodes c's payloads up to its first error.
func (c *chunk) decode() {
	for i, sp := range c.spans[:c.stop] {
		if sp.n == 0 {
			continue
		}
		res, err := core.DecodeResult(c.buf[sp.off : sp.off+sp.n])
		if err != nil {
			c.stop, c.err = i, fmt.Errorf("resultdb: %w", err)
			return
		}
		c.res[i] = res
	}
}

// deliver hands c's results to fn in order and returns fn's error, or
// else c's own.
func (c *chunk) deliver(fn func(key string, res *core.Result) error) error {
	for i, key := range c.keys[:c.stop] {
		if c.spans[i].n == 0 {
			continue
		}
		if err := fn(key, c.res[i]); err != nil {
			return err
		}
	}
	return c.err
}
