package resultdb

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"

	"waycache/internal/core"
)

// scanChunkBytes bounds the payload bytes of one Scan chunk (a chunk always
// holds at least one key, so a single larger payload makes its own chunk).
const scanChunkBytes = 1 << 18

// chunk is a run of consecutive snapshot records on its way through Scan:
// read, decoded, then delivered to fn. Chunks are reused, buffers
// included.
type chunk struct {
	log   []entry // a window of the snapshot
	buf   []byte  // their payloads, back to back
	res   []*core.Result
	stop  int   // entries before the first error, len(log) if none
	err   error // the first read or decode error, at log[stop]
	ready chan struct{}
}

// Scan decodes every stored result and calls fn for each, in log order and
// on the calling goroutine, so fn needs no locking. A non-nil return from
// fn stops the scan and is returned as is. The first read or decode error
// in log order stops it too, after fn has seen exactly the entries before
// it.
//
// Scan snapshots the stored records once and walks them in chunks of
// consecutive records holding about scanChunkBytes of payload. A record
// never moves once written, so each chunk reads its payloads from the
// snapshot's offsets without the lock, and a Put during the scan only adds
// records the snapshot does not see. GOMAXPROCS(0) workers decode chunks
// while fn consumes earlier ones; at most workers+2 chunks are in flight,
// so memory stays bounded whatever the store's size. With GOMAXPROCS 1
// the caller decodes each chunk itself. No goroutine outlives Scan.
func (db *DB) Scan(fn func(key string, res *core.Result) error) error {
	db.mu.Lock()
	log := db.log[:len(db.log):len(db.log)] // Put appends past the snapshot, never inside it
	db.mu.Unlock()
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
	for next := 0; next < len(log) || len(inflight) > 0; {
		for len(inflight) < window && next < len(log) {
			var c *chunk
			if n := len(free); n > 0 {
				c, free = free[n-1], free[:n-1]
			} else {
				c = &chunk{ready: make(chan struct{}, 1)}
			}
			next = c.read(db.f, log, next)
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

// read loads into c the records from log[lo:] whose payloads fit in
// scanChunkBytes, and returns where the next chunk starts. Each payload is
// read on its own, which pins a read error on its key.
func (c *chunk) read(f *os.File, log []entry, lo int) int {
	var size int64
	hi := lo
	for ; hi < len(log); hi++ {
		if size > 0 && size+log[hi].n > scanChunkBytes {
			break
		}
		size += log[hi].n
	}
	c.log, c.stop, c.err = log[lo:hi], hi-lo, nil
	c.res = slices.Grow(c.res[:0], hi-lo)[:hi-lo]
	c.buf = slices.Grow(c.buf[:0], int(size))[:size]
	var at int64
	for i, e := range c.log {
		if _, err := f.ReadAt(c.buf[at:at+e.n], e.off); err != nil {
			c.stop, c.err = i, fmt.Errorf("resultdb: reading record: %w", err)
			break
		}
		at += e.n
	}
	return hi
}

// decode decodes c's payloads up to its first error.
func (c *chunk) decode() {
	var at int64
	for i, e := range c.log[:c.stop] {
		res, err := core.DecodeResult(c.buf[at : at+e.n])
		if err != nil {
			c.stop, c.err = i, fmt.Errorf("resultdb: %w", err)
			return
		}
		c.res[i] = res
		at += e.n
	}
}

// deliver hands c's results to fn in order and returns fn's error, or
// else c's own.
func (c *chunk) deliver(fn func(key string, res *core.Result) error) error {
	for i, e := range c.log[:c.stop] {
		if err := fn(e.key, c.res[i]); err != nil {
			return err
		}
	}
	return c.err
}
