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
	// Par is the intra-run parallelism stamped onto each job that does
	// not set its own: the number of worker goroutines the simulation
	// itself may use (see core.RunParallel). <= 0 means 1 (sequential).
	// When Jobs x Par oversubscribes runtime.GOMAXPROCS(0), Par is
	// trimmed so the combined goroutine budget fits: sweep throughput
	// (one core per job) beats intra-run speedup, so Jobs keeps priority.
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
	par      int // requested per-job parallelism: stamped into keys
	parCap   int // host budget: what actually executes (see RunPar)
	timeout  time.Duration
	cache    *Cache
	rep      *Reporter
	traceDir string
}

// New builds a pool from opts. The requested Par is normalized (>= 1) but
// never trimmed to the host: it names the simulation the caller asked
// for and goes into cache keys verbatim, so the same submission hashes
// identically on every host. The goroutine budget split happens at
// execution time instead — each job runs with min(Par, GOMAXPROCS/jobs)
// workers (jobs keep priority), delivered to executors via RunPar.
// Results are byte-identical either way, so capping execution while
// keying by request is sound.
func New(opts Options) *Pool {
	workers := opts.Jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	par := opts.Par
	if par < 1 {
		par = 1
	}
	parCap := runtime.GOMAXPROCS(0) / workers
	if parCap < 1 {
		parCap = 1
	}
	rep := opts.Reporter
	if rep == nil {
		rep = NewReporter(nil)
	}
	rep.setWorkers(workers)
	return &Pool{
		workers:  workers,
		par:      par,
		parCap:   parCap,
		timeout:  opts.Timeout,
		cache:    opts.Cache,
		rep:      rep,
		traceDir: opts.TraceDir,
	}
}

// Workers returns the pool width.
func (p *Pool) Workers() int { return p.workers }

// Par returns the requested per-job intra-run parallelism (normalized to
// >= 1, but not trimmed to the host's core budget — this is the value
// stamped into cache keys; see RunPar for what actually executes).
func (p *Pool) Par() int { return p.par }

// ParCap returns the per-job goroutine budget: GOMAXPROCS split across
// the pool's workers (jobs keep priority), never below 1. Execution-time
// parallelism for any job is min(Job.Par, ParCap).
func (p *Pool) ParCap() int { return p.parCap }

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
	if j.Par == 0 {
		j.Par = p.par // stamp before the cache lookup: Par is in the key
	}
	// The key carries the requested Par; the host budget caps only what
	// executes. Byte-identity across worker counts is what makes the two
	// safely distinct.
	runPar := j.Par
	if runPar > p.parCap {
		runPar = p.parCap
	}
	ctx = withRunPar(ctx, runPar)
	if p.cache != nil && !j.NoCache {
		if res, ok := p.cache.Get(j.Key()); ok {
			res.ID = j.ID // display label of this sweep, not the writing one
			res.Cached = true
			return *res
		}
	}
	res := Result{ID: j.ID, Workload: j.Workload, Hash: j.Hash, Seed: j.Seed, Par: j.Par}
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
