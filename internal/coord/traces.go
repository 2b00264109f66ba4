package coord

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"

	"waycache/internal/sweep"
	"waycache/internal/trace"
	"waycache/internal/tracestore"
)

// Trace distribution: before any span job is submitted, every
// trace://<hash> the grid references must be present on every host that
// will run cells of it — work lands on whichever host is free, so a
// trace that exists on only one host would make the others fall back to
// the walker (observable, but slower and, for imported external
// workloads, a hard failure). The coordinator closes the gap itself:
// it probes each (host, hash) pair with a HEAD, fetches any hash it
// lacks locally from a host that has it (hash-verified on receipt,
// like every store ingest), and pushes each missing object over
// PUT /api/v1/traces/{hash}. Hosts that cannot be brought up to date —
// no -tracestore, probe errors, failed pushes — are dropped from the
// run before workers start, exactly like hosts that die mid-run; a
// hash that exists neither locally nor on any host aborts the run,
// since no host could replay it. The distributor then stays alive for
// the whole run: hosts joining mid-sweep through the hosts file get the
// same treatment (ensureHost) before their worker starts. Every
// transfer runs under the run's shared retry policy. The result: spans
// may land anywhere at any time, and no host needs a pre-provisioned
// trace directory.

// newDistributor builds the run's trace distributor. When the grid
// references no traces it has no hashes and distributes nothing. A nil
// local store is replaced by an ephemeral one that lives until cleanup
// is called — it must survive the whole run so late joiners can be
// supplied.
func newDistributor(g sweep.Grid, local *tracestore.Store) (distributor, func(), error) {
	d := distributor{store: local, hashes: referencedHashes(g)}
	cleanup := func() {}
	if len(d.hashes) > 0 && d.store == nil {
		// No local store: relay donor-host objects through a temp store,
		// which hash-verifies them exactly like a durable one would.
		dir, err := os.MkdirTemp("", "waycache-coord-traces-")
		if err != nil {
			return d, nil, fmt.Errorf("coord: %w", err)
		}
		store, err := tracestore.Open(dir)
		if err != nil {
			os.RemoveAll(dir)
			return d, nil, err
		}
		d.store = store
		cleanup = func() { os.RemoveAll(dir) }
	}
	return d, cleanup, nil
}

// referencedHashes returns the grid's distinct trace hashes, sorted so
// distribution order (and its logs) is deterministic.
func referencedHashes(g sweep.Grid) []string {
	seen := make(map[string]bool)
	var hashes []string
	for _, ref := range g.TraceRefs {
		if hash, ok := trace.ParseRef(ref); ok && !seen[hash] {
			seen[hash] = true
			hashes = append(hashes, hash)
		}
	}
	sort.Strings(hashes)
	return hashes
}

// distributor is the run's trace-distribution state: the local store it
// pushes from and the hashes the grid references.
type distributor struct {
	store  *tracestore.Store
	hashes []string
}

// ensureHost brings one late-joining host up to date on every referenced
// hash, the way distribute brings the starting hosts, after fetching from
// donors (current active hosts) anything the local store lacks. An error
// means the host must not join the run; distribute has logged why.
func (c *run) ensureHost(ctx context.Context, host string, donors []string) error {
	for _, hash := range c.dist.hashes {
		if !c.dist.store.Has(hash) && !c.fetchFromAny(ctx, hash, donors) {
			return fmt.Errorf("trace %s is no longer available from any active host", trace.ShortHash(hash))
		}
		if live, err := c.distribute(ctx, hash, []string{host}); err != nil || len(live) == 0 {
			return fmt.Errorf("trace %s could not be brought to it", trace.ShortHash(hash))
		}
	}
	return nil
}

// distribute brings every reachable host up to date on one hash and
// returns the hosts still eligible for the run, preserving order.
func (c *run) distribute(ctx context.Context, hash string, hosts []string) ([]string, error) {
	have := make(map[string]bool, len(hosts))
	var live, donors []string
	for _, h := range hosts {
		ok, err := c.hasTrace(ctx, h, hash)
		if err != nil {
			// A 409 here means the host runs without -tracestore: it could
			// never replay the reference, so it leaves the run with the
			// unreachable hosts.
			c.logf("coord: dropping host %s: probing trace %s: %v", h, trace.ShortHash(hash), err)
			continue
		}
		have[h] = ok
		live = append(live, h)
		if ok {
			donors = append(donors, h)
		}
	}
	// A hash that exists nowhere aborts the run: no amount of
	// reassignment could replay it.
	if !c.dist.store.Has(hash) && !c.fetchFromAny(ctx, hash, donors) {
		return nil, fmt.Errorf("coord: trace %s is in no local store (-tracestore) and on no host; import it with traceconv and upload it somewhere first",
			trace.ShortHash(hash))
	}
	var out []string
	for _, h := range live {
		if !have[h] {
			if err := c.pushTrace(ctx, h, hash); err != nil {
				c.logf("coord: dropping host %s: pushing trace %s: %v", h, trace.ShortHash(hash), err)
				continue
			}
			c.logf("coord: pushed trace %s -> %s", trace.ShortHash(hash), h)
		}
		out = append(out, h)
	}
	return out, nil
}

// fetchFromAny pulls hash into the local store from the first donor that
// serves it and reports whether one did.
func (c *run) fetchFromAny(ctx context.Context, hash string, donors []string) bool {
	for _, h := range donors {
		if err := c.fetchTrace(ctx, h, hash); err != nil {
			c.logf("coord: fetching trace %s from %s: %v", trace.ShortHash(hash), h, err)
			continue
		}
		return true
	}
	return false
}

// hasTrace probes one host for one hash without transferring bytes.
func (c *run) hasTrace(ctx context.Context, host, hash string) (bool, error) {
	err := c.send(ctx, "trace-probe "+trace.ShortHash(hash), control,
		http.MethodHead, host+"/api/v1/traces/"+hash, nil, nil)
	var hs *httpStatusError
	if errors.As(err, &hs) && hs.status == http.StatusNotFound {
		return false, nil
	}
	return err == nil, err
}

// fetchTrace pulls hash's bytes from a donor host into the local store,
// which verifies them against the hash before committing — a corrupt
// transfer is rejected here, never relayed onward. PutExpected makes a
// torn, retried transfer harmless.
func (c *run) fetchTrace(ctx context.Context, host, hash string) error {
	return c.send(ctx, "trace-fetch "+trace.ShortHash(hash), bulk,
		http.MethodGet, host+"/api/v1/traces/"+hash, nil, func(r io.Reader) error {
			_, _, err := c.dist.store.PutExpected(r, hash)
			return err
		})
}

// pushTrace uploads the local copy of hash to one host. PUT against a
// content-addressed object is idempotent, so retries are safe.
func (c *run) pushTrace(ctx context.Context, host, hash string) error {
	f, size, err := c.dist.store.Open(hash)
	if err != nil {
		return err
	}
	defer f.Close()
	return c.send(ctx, "trace-push "+trace.ShortHash(hash), bulk,
		http.MethodPut, host+"/api/v1/traces/"+hash,
		&payload{data: f, size: size, contentType: "application/octet-stream"}, nil)
}
