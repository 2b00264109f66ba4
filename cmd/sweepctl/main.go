// Command sweepctl is the distributed sweep coordinator CLI: it fans one
// design-space grid out across multiple waycached hosts and merges their
// results into output byte-identical to a single-host `sweep` run of the
// same grid.
//
// Usage:
//
//	sweepctl -hosts http://10.0.0.1:8080,http://10.0.0.2:8080 \
//	    -benchmarks all -dpolicies all -dways 2,4 -insts 400000
//	sweepctl -hosts-file fleet.txt -shards 8 -store results/ -format csv
//
// The grid flags are cmd/sweep's; the grid is split into -shards
// deterministic contiguous spans (sweep.SpanOf; default one per host),
// each submitted as a span job to a host. Work is elastic from there: a
// host that dies mid-run has its span requeued to a survivor (up to
// -retries submissions per span of work), and a span that stalls for
// -stall without progress is rescued by an idle host: it banks the
// span's finished prefix through the partial export watermark and runs
// the remainder as a duplicate. Determinism makes the duplicate free,
// because both copies produce identical bytes and the first full export
// wins. Every control request runs under one retry policy with capped
// exponential backoff and deterministic seeded jitter.
//
// Membership is elastic too: -hosts-file names a file of host URLs (one
// per line, #-comments) that is read at startup and watched for changes.
// Hosts appended mid-run join the fleet (they receive the grid's traces
// first); hosts removed from it drain — they finish their current span
// and take no more. Hosts passed via -hosts are never drained by file
// edits.
//
// Span results come back in canonical encoded form and, with -store,
// are bulk-ingested into a local on-disk result store, building one
// corpus from the whole fleet. Protocol and failure semantics:
// docs/DISTRIBUTED.md.
//
// Grids may replay content-addressed traces: -traces maps benchmarks to
// trace://<sha256> references (printed by traceconv on import), and
// before any span is submitted the coordinator pushes every referenced
// trace to the hosts that lack it — from the local -tracestore, or
// relayed from whichever host already has it — so no host needs a
// pre-provisioned trace directory. A host that cannot be brought up to
// date is dropped from the run up front; late joiners get the same
// treatment before their first span.
//
// Benchmarks that a remote host re-simulated from the walker instead of
// replaying a capture are reported per span on stderr — a distributed
// -trace run never falls back silently.
//
// Span progress streams over each host's Server-Sent Events endpoint
// (GET /api/v1/jobs/{id}/events); hosts whose stream cannot be
// established fall back transparently to -poll status polling.
// Fleets running with -auth-tokens take a bearer credential via -token
// or the WAYCACHE_TOKEN environment variable (preferred for shared
// machines: flags are visible in process listings).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"waycache/internal/coord"
	"waycache/internal/resultdb"
	"waycache/internal/sweep"
	"waycache/internal/tracestore"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sweepctl:", err)
		os.Exit(1)
	}
}

func run() error {
	gridFlags := sweep.RegisterGridFlags(flag.CommandLine)
	hosts := flag.String("hosts", "", "comma-separated waycached base URLs, e.g. http://10.0.0.1:8080,http://10.0.0.2:8080")
	hostsFile := flag.String("hosts-file", "", "file of waycached base URLs (one per line, #-comments), watched for mid-run joins and drains")
	shards := flag.Int("shards", 0, "contiguous grid spans to distribute (default: one per host)")
	retries := flag.Int("retries", 3, "max submissions per span of work across host reassignments")
	poll := flag.Duration("poll", 250*time.Millisecond, "per-span status poll interval (also the hosts-file watch tick)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request deadline for host control requests (a hanging host fails over like a dead one; exports get 10x)")
	stall := flag.Duration("stall", 10*time.Second, "how long a span may go without progress before an idle host rescues it: banks its finished prefix and duplicates the rest")
	seed := flag.Uint64("seed", 0, "seed for the deterministic retry/backoff jitter (default: derived from the run name)")
	name := flag.String("name", "", "run identity for remote job names (default: derived from the grid)")
	storeDir := flag.String("store", "", "directory of a local on-disk result store to bulk-ingest span results into")
	traceStoreDir := flag.String("tracestore", "", "local content-addressed trace store; referenced trace://<hash> objects are pushed to hosts that lack them")
	format := flag.String("format", "json", "output format: json or csv")
	out := flag.String("out", "-", "output file ('-' for stdout)")
	progress := flag.Bool("progress", true, "report live aggregate progress on stderr")
	token := flag.String("token", "", "bearer token for hosts running with -auth-tokens (default: $WAYCACHE_TOKEN)")
	flag.Parse()

	hostList := splitHosts(*hosts)
	if len(hostList) == 0 && *hostsFile == "" {
		return fmt.Errorf("need -hosts or -hosts-file")
	}
	g, err := gridFlags.Grid()
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	authToken := *token
	if authToken == "" {
		authToken = os.Getenv("WAYCACHE_TOKEN")
	}

	opts := coord.Options{
		Hosts:          hostList,
		HostsFile:      *hostsFile,
		Shards:         *shards,
		MaxAttempts:    *retries,
		PollInterval:   *poll,
		RequestTimeout: *timeout,
		StallAfter:     *stall,
		Seed:           *seed,
		Name:           *name,
		Token:          authToken,
		Logf: func(f string, args ...any) {
			fmt.Fprintf(os.Stderr, f+"\n", args...)
		},
	}
	if *traceStoreDir != "" {
		if opts.TraceStore, err = tracestore.Open(*traceStoreDir); err != nil {
			return err
		}
	}
	if *storeDir != "" {
		db, err := resultdb.Open(*storeDir)
		if err != nil {
			return err
		}
		// Close only releases the log. Ingested results are already in it,
		// unsynced (a crash of this process keeps them, power loss may
		// not), so a close failure warns rather than fails.
		defer func() {
			if cerr := db.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "sweepctl: closing store:", cerr)
			}
		}()
		opts.Backend = db
	}
	if *progress {
		opts.Progress = sweep.TextProgress(os.Stderr, nil)
	}

	fmt.Fprintf(os.Stderr, "sweepctl: %d configs over %d starting hosts\n", g.Size(), len(hostList))

	res, err := coord.Run(ctx, g, opts)
	if err != nil {
		return err
	}

	if err := res.Sweep.WriteOutput(*out, *format); err != nil {
		return err
	}

	for _, sh := range res.Shards {
		how := ""
		if sh.Stolen {
			how = ", stolen prefix"
		}
		if sh.Speculative {
			how += ", speculative"
		}
		fmt.Fprintf(os.Stderr, "sweepctl: span %s: %d configs on %s (%s, %d attempt(s)%s)\n",
			sweep.FormatSpan(sh.Lo, sh.Hi), sh.Configs, sh.Host, sh.JobID, sh.Attempts, how)
		for _, line := range sweep.FormatFallbacks(sh.TraceFallbacks) {
			fmt.Fprintf(os.Stderr, "sweepctl: warning: span %s replayed from walker — %s\n",
				sweep.FormatSpan(sh.Lo, sh.Hi), line)
		}
		for _, w := range sh.Warnings {
			fmt.Fprintf(os.Stderr, "sweepctl: warning: span %s: %s\n", sweep.FormatSpan(sh.Lo, sh.Hi), w)
		}
	}
	for _, h := range res.Hosts {
		joined := ""
		if h.Joined {
			joined = ", joined mid-run"
		}
		fmt.Fprintf(os.Stderr, "sweepctl: host %s: %s%s — %d flight(s), %d piece(s) (%d configs), %d steal(s), %d speculation(s)\n",
			h.Host, h.State, joined, h.Flights, h.Pieces, h.Configs, h.Steals, h.Speculations)
	}
	fmt.Fprintf(os.Stderr, "sweepctl: done — %d records merged", len(res.Sweep.Records))
	if opts.Backend != nil {
		fmt.Fprintf(os.Stderr, ", %d ingested into %s", res.Ingested, *storeDir)
	}
	fmt.Fprintln(os.Stderr)
	return nil
}

// splitHosts splits the -hosts flag, trimming blanks and trailing slashes
// so URL joining stays predictable.
func splitHosts(s string) []string {
	var out []string
	for _, h := range strings.Split(s, ",") {
		if h = strings.TrimRight(strings.TrimSpace(h), "/"); h != "" {
			out = append(out, h)
		}
	}
	return out
}
