// Package harness orchestrates sweeps of independent simulation runs: it
// fans jobs out over a bounded worker pool, derives a deterministic seed
// per job, captures panics as job failures, enforces per-job timeouts
// and context cancellation, caches results on disk so interrupted sweeps
// resume instead of recomputing, and reports progress and telemetry.
//
// The harness is deliberately ignorant of what a job computes: an
// Executor maps a Job to metrics. Sweep drivers (internal/exp) build the
// (workload x config) grids and submit them here; nothing about worker
// count or scheduling order can influence a job's result, because every
// job's inputs — including its seed — are a pure function of its
// identity.
package harness

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"uvmsim/internal/metrics"
)

// Executor runs one job to completion. Implementations should be pure:
// the same job must always produce the same statistics. The context
// carries cancellation and the per-job deadline; executors that cannot
// observe it mid-run (a tight simulation loop) are abandoned on expiry
// and their job recorded as failed.
type Executor func(ctx context.Context, j Job) (*metrics.Stats, error)

// Options configures a Pool.
type Options struct {
	// Jobs is the worker count; <= 0 means runtime.GOMAXPROCS(0).
	Jobs int
	// Par is ignored: every simulation runs on one goroutine. It is kept
	// only because perfbench's grid runner (perfbench/grid.go) still sets
	// Par: 1; delete it together with that line.
	Par int
	// Timeout bounds each job's wall time; 0 means no limit.
	Timeout time.Duration
	// Cache, when non-nil, is consulted before running a job and updated
	// after. Only completed simulations (including cycle-limit lower
	// bounds) are cached; panics and timeouts are rerun on resume.
	Cache *Cache
	// Reporter receives progress; nil installs a silent one.
	Reporter *Reporter
	// TraceDir, when non-empty, asks executors to write one execution
	// trace per freshly-run job into this directory (see TracePath). The
	// directory must exist; cache hits produce no trace.
	TraceDir string
}

// Pool runs job batches over a fixed-width worker pool. A Pool may be
// reused across many Run calls (a sweep per figure, say); its reporter
// accumulates totals across all of them.
type Pool struct {
	workers  int
	timeout  time.Duration
	cache    *Cache
	rep      *Reporter
	traceDir string
}

// New builds a pool from opts.
func New(opts Options) *Pool {
	workers := opts.Jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rep := opts.Reporter
	if rep == nil {
		rep = NewReporter(nil)
	}
	rep.setWorkers(workers)
	return &Pool{
		workers:  workers,
		timeout:  opts.Timeout,
		cache:    opts.Cache,
		rep:      rep,
		traceDir: opts.TraceDir,
	}
}

// Workers returns the pool width.
func (p *Pool) Workers() int { return p.workers }

// Reporter returns the pool's progress reporter.
func (p *Pool) Reporter() *Reporter { return p.rep }

// Run executes jobs and returns their results in submission order. It
// never fails the sweep because one job failed: per-job errors are
// recorded in the corresponding Result. Run itself returns an error only
// when ctx is canceled before all jobs complete (jobs not yet finished
// are recorded as canceled, uncached).
func (p *Pool) Run(ctx context.Context, jobs []Job, exec Executor) ([]Result, error) {
	p.rep.submitted(len(jobs))
	results := make([]Result, len(jobs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = p.runJob(ctx, jobs[i], exec)
				p.rep.done(&results[i])
			}
		}()
	}
feed:
	for i := range jobs {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		// Jobs never handed to a worker still need a definite outcome
		// (runJob always sets ID, so a blank one marks an unstarted job).
		for i := range results {
			if results[i].ID == "" {
				j := jobs[i]
				results[i] = Result{
					ID: j.ID, Workload: j.Workload, Hash: j.Hash, Seed: j.Seed,
					Err: fmt.Sprintf("harness: job %s: %v", j.ID, err),
				}
			}
		}
		return results, fmt.Errorf("harness: sweep interrupted: %w", err)
	}
	return results, nil
}

// runJob produces one job's result: cache hit, fresh run, or failure.
func (p *Pool) runJob(ctx context.Context, j Job, exec Executor) Result {
	if p.cache != nil && !j.NoCache {
		if res, ok := p.cache.Get(j.Key()); ok {
			res.ID = j.ID // display label of this sweep, not the writing one
			res.Cached = true
			return *res
		}
	}
	res := Result{ID: j.ID, Workload: j.Workload, Hash: j.Hash, Seed: j.Seed}
	tracePath := ""
	if p.traceDir != "" {
		tracePath = filepath.Join(p.traceDir, traceFileName(j.ID))
		ctx = withTracePath(ctx, tracePath)
	}
	start := time.Now()
	stats, err := p.execute(ctx, j, exec)
	res.WallNS = time.Since(start).Nanoseconds()
	res.Stats = stats
	res.PeakBatchPages = peakBatchPages(stats)
	if tracePath != "" {
		if _, serr := os.Stat(tracePath); serr == nil {
			res.TraceFile = tracePath
		}
	}
	if err != nil {
		res.Err = err.Error()
	}
	// Cache only completed simulations: successes and cycle-limit lower
	// bounds (partial stats). Panics, timeouts, and cancellations leave
	// no entry, so a resumed sweep reruns them.
	if p.cache != nil && !j.NoCache && (err == nil || stats != nil) && ctx.Err() == nil {
		if cerr := p.cache.Put(j.Key(), &res); cerr != nil && p.rep.W != nil {
			fmt.Fprintf(p.rep.W, "cache write failed for %s: %v\n", j.ID, cerr)
		}
	}
	return res
}

// execute runs exec once under the job deadline, converting a panic into
// an error carrying the panic value and stack. The executor runs in its
// own goroutine so that a deadline or cancellation can abandon a
// computation that never checks the context; an abandoned run keeps its
// goroutine until the simulation finishes on its own (bounded in
// practice by Config.MaxCycles).
func (p *Pool) execute(ctx context.Context, j Job, exec Executor) (*metrics.Stats, error) {
	if p.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.timeout)
		defer cancel()
	}
	type outcome struct {
		stats *metrics.Stats
		err   error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if v := recover(); v != nil {
				buf := make([]byte, 4096)
				buf = buf[:runtime.Stack(buf, false)]
				ch <- outcome{nil, fmt.Errorf("panic: %v\n%s", v, buf)}
			}
		}()
		stats, err := exec(ctx, j)
		ch <- outcome{stats, err}
	}()
	select {
	case out := <-ch:
		return out.stats, out.err
	case <-ctx.Done():
		return nil, fmt.Errorf("harness: job %s: %w", j.ID, ctx.Err())
	}
}
