package harness

import (
	"time"

	"uvmsim/internal/metrics"
)

// Result is the outcome of one job, serializable as the on-disk cache
// entry. Exactly one of three shapes occurs:
//
//   - Err == "": the run succeeded; Stats is complete.
//   - Err != "" and Stats != nil: the run aborted with partial statistics
//     (a cycle-limit abort); sweep drivers may report it as a lower bound.
//   - Err != "" and Stats == nil: the run failed outright (bad config,
//     unbuildable workload, or a panic).
type Result struct {
	ID       string `json:"id"`
	Workload string `json:"workload"`
	Hash     string `json:"hash"`

	Stats *metrics.Stats `json:"stats,omitempty"`
	Err   string         `json:"err,omitempty"`

	// Telemetry.
	WallNS         int64 `json:"wall_ns"`          // executor wall time
	Cached         bool  `json:"cached,omitempty"` // served from the cache
	PeakBatchPages int   `json:"peak_batch_pages,omitempty"`
}

// Key returns the result's cache identity (mirrors Job.Key).
func (r *Result) Key() string {
	return Job{Workload: r.Workload, Hash: r.Hash}.Key()
}

// Wall returns the executor wall time as a duration.
func (r *Result) Wall() time.Duration { return time.Duration(r.WallNS) }

// peakBatchPages extracts the largest batch (in pages) from a run.
func peakBatchPages(s *metrics.Stats) int {
	if s == nil {
		return 0
	}
	peak := 0
	for _, b := range s.Batches {
		if b.Pages > peak {
			peak = b.Pages
		}
	}
	return peak
}
