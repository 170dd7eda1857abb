package harness

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Totals is a snapshot of a sweep's progress counters.
type Totals struct {
	Submitted int           // jobs handed to the pool so far
	Done      int           // jobs finished successfully (fresh runs)
	Capped    int           // fresh runs stopped with partial stats: lower bounds
	Failed    int           // jobs that failed outright, with no stats
	Cached    int           // jobs served from the result cache
	WallSum   time.Duration // summed executor wall time of fresh runs
	Elapsed   time.Duration // wall time since the reporter started
	PeakBatch int           // largest fault batch (pages) seen in any run
}

// Completed returns the number of jobs with any outcome.
func (t Totals) Completed() int { return t.Done + t.Capped + t.Failed + t.Cached }

// Reporter accumulates sweep telemetry and, when W is non-nil, narrates
// per-job progress with an ETA extrapolated from mean job wall time over
// the worker count. It is safe for concurrent use by pool workers.
type Reporter struct {
	// W receives one line per job completion; nil silences narration
	// (counters still accumulate).
	W io.Writer

	mu      sync.Mutex
	start   time.Time
	workers int
	t       Totals
}

// NewReporter returns a reporter narrating to w (which may be nil).
func NewReporter(w io.Writer) *Reporter {
	return &Reporter{W: w, start: time.Now(), workers: 1}
}

// setWorkers records the pool width used for ETA extrapolation.
func (rp *Reporter) setWorkers(n int) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if n > 0 {
		rp.workers = n
	}
}

// submitted grows the expected-job total.
func (rp *Reporter) submitted(n int) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	rp.t.Submitted += n
}

// done records one finished job and narrates it.
func (rp *Reporter) done(res *Result) {
	// A result with an error and stats is a cycle-capped lower bound
	// (result.go's second shape), not a failure.
	status := "done"
	rp.mu.Lock()
	switch {
	case res.Cached:
		rp.t.Cached++
		status = "cached"
	case res.Err != "" && res.Stats != nil:
		rp.t.Capped++
		status = "capped: " + res.Err
	case res.Err != "":
		rp.t.Failed++
		status = "FAILED: " + res.Err
	default:
		rp.t.Done++
	}
	if !res.Cached {
		rp.t.WallSum += res.Wall()
	}
	if res.PeakBatchPages > rp.t.PeakBatch {
		rp.t.PeakBatch = res.PeakBatchPages
	}
	t := rp.t
	workers := rp.workers
	w := rp.W
	rp.mu.Unlock()

	if w == nil {
		return
	}
	fmt.Fprintf(w, "[%d/%d] %-40s %6.1fs  %s%s\n",
		t.Completed(), t.Submitted, res.ID, res.Wall().Seconds(), status, etaSuffix(t, workers))
}

// etaSuffix estimates time to drain the remaining jobs from the mean
// fresh-run wall time spread over the worker pool.
func etaSuffix(t Totals, workers int) string {
	remaining := t.Submitted - t.Completed()
	fresh := t.Done + t.Capped + t.Failed
	if remaining <= 0 || fresh == 0 {
		return ""
	}
	mean := t.WallSum / time.Duration(fresh)
	eta := mean * time.Duration(remaining) / time.Duration(workers)
	return fmt.Sprintf("  (eta %s)", eta.Round(time.Second))
}

// Totals snapshots the counters.
func (rp *Reporter) Totals() Totals {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	t := rp.t
	t.Elapsed = time.Since(rp.start)
	return t
}

// Summary renders a one-line sweep summary.
func (rp *Reporter) Summary() string {
	t := rp.Totals()
	return fmt.Sprintf("sweep: %d jobs (%d run, %d cached, %d capped, %d failed) in %.1fs wall, %.1fs simulated, peak batch %d pages",
		t.Submitted, t.Done, t.Cached, t.Capped, t.Failed, t.Elapsed.Seconds(), t.WallSum.Seconds(), t.PeakBatch)
}
