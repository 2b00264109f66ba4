// Command waycached is the long-lived HTTP sweep service: submit design
// space grids, poll their progress, and query or aggregate the accumulated
// result corpus — without re-simulating anything a previous job or process
// already ran.
//
// Usage:
//
//	waycached -addr :8080 -store results/
//	waycached -addr 127.0.0.1:9090 -workers 8 -trace traces/
//
// With -store the service fronts the crash-safe on-disk result database in
// that directory (internal/resultdb): results survive restarts, and the
// corpus written by offline `sweep -store` runs is immediately servable.
// Without it, results live only in process memory.
//
// Endpoints (full reference with examples in docs/HTTP_API.md):
//
//	POST   /api/v1/jobs                 submit a sweep.Grid JSON body,
//	                                    optionally one config range
//	                                    ("span":"lo-hi") under a
//	                                    client-supplied "name"
//	GET    /api/v1/jobs                 list jobs
//	GET    /api/v1/jobs/{id}            poll one job's progress
//	POST   /api/v1/jobs/{id}/cancel     cancel a queued or running job
//	                                    (terminal "cancelled" state)
//	DELETE /api/v1/jobs/{id}            evict a terminal job's bookkeeping
//	GET    /api/v1/jobs/{id}/results    finished records (json or csv),
//	                                    byte-identical to cmd/sweep output
//	GET    /api/v1/jobs/{id}/export     canonical key+result stream for the
//	                                    distributed coordinator (sweepctl)
//	GET    /api/v1/jobs/{id}/events     Server-Sent Events progress stream
//	                                    (terminal status event, then EOF)
//	GET    /api/v1/traces               list stored trace hashes (-tracestore)
//	GET    /api/v1/traces/{hash}        download a stored trace (HEAD probes)
//	PUT    /api/v1/traces/{hash}        upload a trace under its sha256
//	GET    /api/v1/results              filter the whole corpus by
//	                                    benchmark/policy/geometry
//	GET    /api/v1/aggregate            group-by summaries over the corpus
//	GET    /api/v1/stats                store and job counters
//	GET    /healthz                     liveness
//	GET    /debug/pprof/                live net/http/pprof profiles
//	                                    (bearer-authed when -auth-tokens
//	                                    is set, like the API)
//
// Jobs from any number of clients run concurrently under one fair-share
// simulation budget (-workers slots total): freed slots rotate across
// clients, so a giant grid never starves a small job, and outputs stay
// byte-identical to sequential runs at any budget. With -auth-tokens the
// service requires bearer tokens and meters fair share and -rate limits
// per token name; without it, per remote host.
//
// Several waycached instances form the worker fleet of a distributed
// sweep: cmd/sweepctl splits a grid into deterministic spans, runs one
// span job per host, and merges the exports byte-identically (see
// docs/DISTRIBUTED.md).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"waycache/internal/server"
	"waycache/internal/sweep"
	"waycache/internal/tracestore"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "waycached:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	storeDir := flag.String("store", "", "directory of the on-disk result store (empty: memory only)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "global simulation budget: max concurrent simulations across all jobs")
	traceDir := flag.String("trace", "", "directory of captured traces (<benchmark>.wct) to replay")
	traceStoreDir := flag.String("tracestore", "", "content-addressed trace store directory: serves /api/v1/traces and resolves trace:// job references")
	authTokens := flag.String("auth-tokens", "", "comma-separated name=token bearer credentials; empty runs the service open")
	authTokensFile := flag.String("auth-tokens-file", "", "file of name=token lines (#-comments allowed); reloaded on SIGHUP and on mtime change, so tokens rotate without a restart")
	rate := flag.Float64("rate", 0, "per-client request rate limit in requests/sec (0: unlimited)")
	burst := flag.Int("burst", 0, "rate-limit burst size (default 16)")
	flag.Parse()

	opts := server.Options{Workers: *workers, TraceDir: *traceDir, RatePerSec: *rate, RateBurst: *burst}
	switch {
	case *authTokens != "" && *authTokensFile != "":
		return fmt.Errorf("-auth-tokens and -auth-tokens-file are mutually exclusive")
	case *authTokens != "":
		tokens, err := server.ParseAuthTokens(*authTokens)
		if err != nil {
			return err
		}
		opts.AuthTokens = tokens
		fmt.Fprintf(os.Stderr, "waycached: bearer auth enabled for %d clients\n", len(tokens))
	case *authTokensFile != "":
		tokens, err := server.ParseAuthTokensFile(*authTokensFile)
		if err != nil {
			return err
		}
		opts.AuthTokens = tokens
		fmt.Fprintf(os.Stderr, "waycached: bearer auth enabled for %d clients (rotatable via %s)\n", len(tokens), *authTokensFile)
	}
	if *traceStoreDir != "" {
		ts, err := tracestore.Open(*traceStoreDir)
		if err != nil {
			return err
		}
		opts.TraceStore = ts
		hashes, err := ts.Hashes()
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "waycached: trace store %s holds %d traces\n", *traceStoreDir, len(hashes))
	}
	if *storeDir != "" {
		store, db, err := sweep.OpenDiskStore(*storeDir)
		if err != nil {
			return err
		}
		defer db.Close()
		opts.Store = store
		fmt.Fprintf(os.Stderr, "waycached: store %s holds %d results\n", *storeDir, store.Len())
	} else {
		opts.Store = sweep.NewStore()
	}

	srv := server.New(opts)
	defer srv.Close()
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *authTokensFile != "" {
		go watchAuthTokens(ctx, srv, *authTokensFile)
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "waycached: listening on %s\n", *addr)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Graceful drain: stop accepting, let in-flight responses finish, then
	// cancel the running job and flush the store index via the defers.
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	fmt.Fprintln(os.Stderr, "waycached: shut down")
	return nil
}

// watchAuthTokens hot-reloads the -auth-tokens-file on SIGHUP and on
// mtime change (polled every few seconds, for operators whose process
// manager cannot signal). A file that fails to parse is logged and the
// previous token set stays live — rotation can never lock the fleet out
// by a half-written file. In-flight jobs keep the fair-share identity
// captured at submission regardless of rotations.
func watchAuthTokens(ctx context.Context, srv *server.Server, path string) {
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)

	lastMod := time.Time{}
	if st, err := os.Stat(path); err == nil {
		lastMod = st.ModTime()
	}
	tick := time.NewTicker(3 * time.Second)
	defer tick.Stop()

	reload := func(why string) {
		tokens, err := server.ParseAuthTokensFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "waycached: token reload (%s) failed, keeping previous tokens: %v\n", why, err)
			return
		}
		if err := srv.SetAuthTokens(tokens); err != nil {
			fmt.Fprintf(os.Stderr, "waycached: token reload (%s) rejected: %v\n", why, err)
			return
		}
		fmt.Fprintf(os.Stderr, "waycached: rotated bearer tokens (%s): %d clients\n", why, len(tokens))
	}

	for {
		select {
		case <-ctx.Done():
			return
		case <-hup:
			reload("SIGHUP")
		case <-tick.C:
			st, err := os.Stat(path)
			if err != nil {
				// Transient (an atomic rename mid-swap): keep serving the
				// current tokens and check again next tick.
				continue
			}
			if mod := st.ModTime(); !mod.Equal(lastMod) {
				lastMod = mod
				reload("mtime change")
			}
		}
	}
}
