// Package sweep is the design-space sweep engine: it expands declarative
// parameter grids (benchmarks x policies x geometries x latencies) into
// simulation jobs, executes them on a bounded worker pool, and merges the
// results in deterministic job order regardless of worker count.
//
// The engine memoizes results by canonical configuration (core.Config.Key)
// in a Store that can be shared across sweeps and experiments, so common
// baselines are simulated exactly once even when several experiments need
// them concurrently. Results flatten into Records with JSON and CSV
// emitters whose bytes depend only on the grid — a sweep run with one
// worker and with eight produces identical output.
//
//	eng := sweep.New(sweep.Options{Workers: 8})
//	sw, err := eng.Run(ctx, sweep.Grid{
//	    Benchmarks: workload.Names(),
//	    DPolicies:  sweep.AllDPolicies(),
//	    DWays:      []int{1, 2, 4, 8, 16},
//	})
//	sw.WriteJSON(os.Stdout)
package sweep

import (
	"context"
	"runtime"
	"sync"

	"waycache/internal/core"
	"waycache/internal/tracestore"
)

// Options configures an Engine.
type Options struct {
	// Workers bounds concurrent simulations (default: runtime.NumCPU()).
	Workers int
	// Store shares memoized results across engines; nil means a private
	// fresh store.
	Store *Store
	// Progress, when non-nil, receives a completion event per finished
	// job. Calls are serialized by the engine.
	Progress Progress
	// OnResult, when non-nil, receives every successfully completed
	// configuration as (input index, result) the moment it finishes —
	// simulated or recalled from memo alike. Calls are serialized by the
	// engine but arrive in completion order, not input order; callers that
	// need the longest finished prefix (the HTTP service's partial-export
	// watermark) track it themselves.
	OnResult func(index int, res *core.Result)
	// TraceStore, when non-nil, resolves content-addressed trace
	// references (core.Config.Trace = "trace://<hash>", typically set by
	// Grid.TraceRefs) to local files, verified against their hash on
	// decode. References whose object is missing, unreadable or too short
	// fall back to the suite benchmark's own stream when there is one,
	// with the reason reported through TraceFallbacks.
	TraceStore *tracestore.Store
	// Budget, when non-nil, is a shared simulation-admission budget:
	// every actual simulation (never a memo hit or disk recall) acquires
	// one slot under Owner before running. Several engines sharing one
	// Budget — the waycached concurrent scheduler — collectively respect
	// its capacity with per-owner fair-share scheduling; Workers then
	// only bounds this engine's concurrency ceiling.
	Budget *Budget
	// Owner is the fair-share identity slots are acquired under (e.g.
	// the submitting client). Meaningful only with Budget.
	Owner string
}

// Engine executes sweeps on a bounded worker pool.
type Engine struct {
	workers  int
	store    *Store
	progress Progress
	onResult func(int, *core.Result)
	progMu   sync.Mutex //wclint:lockrank 35
	traces   *traceResolver
	budget   *Budget
	owner    string
}

// New creates an engine.
func New(o Options) *Engine {
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.Store == nil {
		o.Store = NewStore()
	}
	return &Engine{
		workers: o.Workers, store: o.Store, progress: o.Progress,
		onResult: o.OnResult,
		traces:   newTraceResolver(o.TraceStore),
		budget:   o.Budget, owner: o.Owner,
	}
}

// Store returns the engine's result store (for memo-hit accounting and
// sharing with other engines).
func (e *Engine) Store() *Store { return e.store }

// TraceFallbacks reports every benchmark whose trace:// reference the
// engine could not use, so that it ran the suite benchmark's own stream
// instead (or failed, for an imported workload), mapped to the reason
// (no store, missing or unreadable object, too few instructions, ...).
// Nil when every reference resolved. Callers surface this so a run that
// quietly re-simulated is visible in summaries, not silent.
func (e *Engine) TraceFallbacks() map[string]string { return e.traces.fallbackReport() }

// result is the budget-aware lookup every worker uses: without a budget
// it is a plain store lookup; with one, an actual simulation first
// acquires a slot under the engine's owner, waiting its fair-share turn.
// Cancelling ctx abandons the wait (the store treats the denial as
// never-happened for other callers).
func (e *Engine) result(ctx context.Context, cfg core.Config) (*core.Result, error) {
	cfg = e.traces.resolve(cfg)
	if e.budget == nil {
		return e.store.Result(cfg)
	}
	return e.store.ResultGated(cfg, func() (func(), error) {
		if err := e.budget.Acquire(ctx, e.owner); err != nil {
			return nil, err
		}
		return e.budget.Release, nil
	})
}

// RunConfigs simulates every config on the worker pool and returns results
// in input order — position i holds cfgs[i]'s result — regardless of how
// many workers ran them. Cancelling ctx stops simulating promptly; the
// first simulation error cancels the remaining work. On error the returned
// slice holds the results completed so far (nil elsewhere).
//
// Progress accounting counts every job exactly once whatever its fate —
// simulated, served from memo, failed, or skipped because the run was
// already cancelled — so a Progress callback always observes a terminal
// done == total event, for successful, failing and cancelled runs alike.
func (e *Engine) RunConfigs(ctx context.Context, cfgs []core.Config) ([]*core.Result, error) {
	results := make([]*core.Result, len(cfgs))
	if len(cfgs) == 0 {
		return results, ctx.Err()
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	workers := e.workers
	if workers > len(cfgs) {
		workers = len(cfgs)
	}

	jobs := make(chan int)
	var (
		wg      sync.WaitGroup
		errOnce sync.Once
		runErr  error
		done    int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				// After cancellation jobs drain without simulating, but
				// still count toward the terminal progress event.
				if runCtx.Err() == nil {
					res, err := e.result(runCtx, cfgs[i])
					if err != nil {
						errOnce.Do(func() { runErr = err; cancel() })
					} else {
						results[i] = res
						if e.onResult != nil {
							e.progMu.Lock()
							e.onResult(i, res)
							e.progMu.Unlock()
						}
					}
				}
				if e.progress != nil {
					e.progMu.Lock()
					done++
					e.progress(done, len(cfgs))
					e.progMu.Unlock()
				}
			}
		}()
	}

	// Every job is fed unconditionally: cancelled runs drain the queue at
	// memo speed rather than abandoning it, which is what guarantees the
	// final done == total progress event.
	for i := range cfgs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	if runErr != nil {
		return results, runErr
	}
	return results, ctx.Err()
}

// Run expands the grid, simulates every cell, and returns the flattened
// records in grid order.
func (e *Engine) Run(ctx context.Context, g Grid) (*Sweep, error) {
	results, err := e.RunConfigs(ctx, g.Configs())
	if err != nil {
		return nil, err
	}
	return NewSweep(results), nil
}
