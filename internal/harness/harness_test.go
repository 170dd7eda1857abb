package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"uvmsim/internal/config"
	"uvmsim/internal/metrics"
)

// fakeJob builds a distinct job for index i.
func fakeJob(i int) Job {
	cfg := config.Default()
	cfg.UVM.FaultHandlingUS = float64(i) // distinct configs
	hash, err := HashParts(cfg)
	if err != nil {
		panic(err)
	}
	return Job{
		ID:       fmt.Sprintf("job-%d", i),
		Workload: fmt.Sprintf("wl-%d", i%3),
		Config:   cfg,
		Hash:     hash,
		Seed:     DeriveSeed(42, fmt.Sprintf("wl-%d", i%3), hash),
	}
}

// statsFor fabricates deterministic stats for a job.
func statsFor(j Job) *metrics.Stats {
	return &metrics.Stats{
		Cycles:  j.Seed % 1_000_000,
		Batches: []metrics.Batch{{Start: 0, FirstMigration: 1, End: 2, Pages: int(j.Seed % 97)}},
	}
}

func TestPoolRunsAllJobsInOrder(t *testing.T) {
	p := New(Options{Jobs: 8})
	jobs := make([]Job, 50)
	for i := range jobs {
		jobs[i] = fakeJob(i)
	}
	results, err := p.Run(context.Background(), jobs, func(_ context.Context, j Job) (*metrics.Stats, error) {
		return statsFor(j), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("results = %d, want %d", len(results), len(jobs))
	}
	for i, res := range results {
		if res.ID != jobs[i].ID {
			t.Fatalf("result %d is %q, want %q (order not preserved)", i, res.ID, jobs[i].ID)
		}
		if res.Err != "" || res.Stats == nil {
			t.Fatalf("job %d failed: %+v", i, res)
		}
		if res.Stats.Cycles != jobs[i].Seed%1_000_000 {
			t.Fatalf("job %d got foreign stats", i)
		}
	}
	tot := p.Reporter().Totals()
	if tot.Done != 50 || tot.Failed != 0 || tot.Cached != 0 {
		t.Fatalf("totals = %+v", tot)
	}
}

// TestPoolPanicIsCapturedOnce runs a panicking executor exactly once and
// records the panic as that job's failure without sinking the sweep.
func TestPoolPanicIsCapturedOnce(t *testing.T) {
	p := New(Options{Jobs: 2})
	var calls atomic.Int32
	jobs := []Job{fakeJob(0), fakeJob(1)}
	results, err := p.Run(context.Background(), jobs, func(_ context.Context, j Job) (*metrics.Stats, error) {
		if j.ID == "job-0" {
			calls.Add(1)
			panic("boom")
		}
		return statsFor(j), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("panicking job ran %d times, want 1", got)
	}
	if results[0].Err == "" || !strings.Contains(results[0].Err, "boom") {
		t.Fatalf("panic not captured: %+v", results[0])
	}
	if results[1].Err != "" {
		t.Fatalf("healthy job failed: %+v", results[1])
	}
}

func TestPoolErrorsAreNotRetried(t *testing.T) {
	p := New(Options{Jobs: 1})
	var calls atomic.Int32
	results, err := p.Run(context.Background(), []Job{fakeJob(0)}, func(_ context.Context, _ Job) (*metrics.Stats, error) {
		calls.Add(1)
		return nil, errors.New("deterministic failure")
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("deterministic error retried: %d calls", got)
	}
	if results[0].Err != "deterministic failure" {
		t.Fatalf("err = %q", results[0].Err)
	}
}

func TestPoolPerJobTimeout(t *testing.T) {
	p := New(Options{Jobs: 2, Timeout: 20 * time.Millisecond})
	jobs := []Job{fakeJob(0), fakeJob(1)}
	release := make(chan struct{})
	defer close(release)
	results, err := p.Run(context.Background(), jobs, func(ctx context.Context, j Job) (*metrics.Stats, error) {
		if j.ID == "job-0" {
			<-release // never within the deadline
			return nil, ctx.Err()
		}
		return statsFor(j), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == "" || !strings.Contains(results[0].Err, "deadline") {
		t.Fatalf("timeout not recorded: %+v", results[0])
	}
	if results[1].Err != "" {
		t.Fatalf("fast job failed: %+v", results[1])
	}
}

func TestPoolCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := New(Options{Jobs: 1})
	jobs := make([]Job, 10)
	for i := range jobs {
		jobs[i] = fakeJob(i)
	}
	var started atomic.Int32
	results, err := p.Run(ctx, jobs, func(_ context.Context, j Job) (*metrics.Stats, error) {
		if started.Add(1) == 2 {
			cancel()
		}
		return statsFor(j), nil
	})
	if err == nil {
		t.Fatal("canceled sweep reported success")
	}
	if len(results) != len(jobs) {
		t.Fatalf("results = %d, want %d", len(results), len(jobs))
	}
	// Every job has a definite outcome: success or a cancellation error.
	canceled := 0
	for i, res := range results {
		if res.ID == "" {
			t.Fatalf("job %d has no outcome", i)
		}
		if res.Err != "" {
			canceled++
		}
	}
	if canceled == 0 {
		t.Fatal("no job recorded the cancellation")
	}
}

func TestPoolCacheRoundTripAndResume(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]Job, 6)
	for i := range jobs {
		jobs[i] = fakeJob(i)
	}
	var runs atomic.Int32
	exec := func(_ context.Context, j Job) (*metrics.Stats, error) {
		runs.Add(1)
		return statsFor(j), nil
	}

	// First sweep: everything fresh.
	p1 := New(Options{Jobs: 3, Cache: cache})
	if _, err := p1.Run(context.Background(), jobs, exec); err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 6 {
		t.Fatalf("fresh sweep ran %d jobs, want 6", got)
	}
	if cache.Len() != 6 {
		t.Fatalf("cache holds %d entries, want 6", cache.Len())
	}

	// Second sweep over the same grid: all hits, zero executions, and the
	// cached stats round-trip exactly.
	p2 := New(Options{Jobs: 3, Cache: cache})
	results, err := p2.Run(context.Background(), jobs, exec)
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 6 {
		t.Fatalf("resumed sweep re-ran jobs: %d executions", got)
	}
	for i, res := range results {
		if !res.Cached {
			t.Fatalf("job %d not served from cache", i)
		}
		want := statsFor(jobs[i])
		if res.Stats == nil || res.Stats.Cycles != want.Cycles ||
			len(res.Stats.Batches) != len(want.Batches) ||
			res.Stats.Batches[0].Pages != want.Batches[0].Pages {
			t.Fatalf("job %d cached stats mismatch: %+v", i, res.Stats)
		}
	}
	if tot := p2.Reporter().Totals(); tot.Cached != 6 || tot.Done != 0 {
		t.Fatalf("resume totals = %+v", tot)
	}
}

func TestPoolDoesNotCacheFailures(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := New(Options{Jobs: 1, Cache: cache})
	jobs := []Job{fakeJob(0)}
	if _, err := p.Run(context.Background(), jobs, func(_ context.Context, _ Job) (*metrics.Stats, error) {
		panic("crash")
	}); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 0 {
		t.Fatal("panic outcome was cached; resume would never retry it")
	}

	// A cycle-limit-style abort (error WITH partial stats) is a real,
	// deterministic simulation outcome and is cached.
	if _, err := p.Run(context.Background(), jobs, func(_ context.Context, j Job) (*metrics.Stats, error) {
		return statsFor(j), errors.New("cycle limit exceeded")
	}); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 1 {
		t.Fatal("lower-bound outcome not cached")
	}
	res, ok := cache.Get(jobs[0].Key())
	if !ok || res.Err == "" || res.Stats == nil {
		t.Fatalf("cached lower bound corrupt: %+v", res)
	}
}

func TestPoolNoCacheJobsSkipCache(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := New(Options{Jobs: 1, Cache: cache})
	j := fakeJob(0)
	j.NoCache = true
	if _, err := p.Run(context.Background(), []Job{j}, func(_ context.Context, j Job) (*metrics.Stats, error) {
		return statsFor(j), nil
	}); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 0 {
		t.Fatal("NoCache job left a cache entry")
	}
}

func TestDeriveSeedStableAndDistinct(t *testing.T) {
	a := DeriveSeed(42, "BFS-TTC", "hash1")
	if b := DeriveSeed(42, "BFS-TTC", "hash1"); b != a {
		t.Fatal("derivation not deterministic")
	}
	distinct := map[uint64]string{a: "base"}
	cases := []struct {
		name string
		seed uint64
	}{
		{"other base", DeriveSeed(43, "BFS-TTC", "hash1")},
		{"other workload", DeriveSeed(42, "PR", "hash1")},
		{"other hash", DeriveSeed(42, "BFS-TTC", "hash2")},
		{"shifted parts", DeriveSeed(42, "BFS-TTCh", "ash1")},
	}
	for _, c := range cases {
		if prev, dup := distinct[c.seed]; dup {
			t.Fatalf("%s collides with %s", c.name, prev)
		}
		distinct[c.seed] = c.name
	}
}

func TestHashPartsSensitivity(t *testing.T) {
	cfg := config.Default()
	h1, err := HashParts(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := HashParts(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatal("hash not deterministic")
	}
	cfg.UVM.PrefetchAggressiveness = 0.25 // a field the old memo key missed
	h3, err := HashParts(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Fatal("config field change did not change the hash")
	}
	h4, err := HashParts(2, config.Default())
	if err != nil {
		t.Fatal(err)
	}
	if h4 == h1 {
		t.Fatal("version salt did not change the hash")
	}
}

// TestCancelMidSweepThenResume is the full interrupted-sweep story in
// one test: a mid-sweep context cancel propagates through the worker
// pool into the executors, in-flight jobs stop promptly (well before
// their natural runtime), the jobs completed before the cancel keep
// their cache entries, and a rerun against the same cache serves those
// from disk while freshly running only the interrupted remainder —
// exactly what `cmd/experiments -resume` relies on.
func TestCancelMidSweepThenResume(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = fakeJob(i)
	}
	const completeBeforeCancel = 3

	ctx, cancel := context.WithCancel(context.Background())
	var completed atomic.Int32
	p := New(Options{Jobs: 1, Cache: cache}) // serial: completion order is submission order
	start := time.Now()
	results, err := p.Run(ctx, jobs, func(ctx context.Context, j Job) (*metrics.Stats, error) {
		if completed.Load() >= completeBeforeCancel {
			cancel()
			// Simulate a long-running simulation that honors cancellation:
			// it must return promptly, not after its natural (long) runtime.
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(30 * time.Second):
				return statsFor(j), nil
			}
		}
		completed.Add(1)
		return statsFor(j), nil
	})
	if err == nil {
		t.Fatal("canceled sweep reported success")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v to unwind; in-flight job did not stop promptly", elapsed)
	}
	for i := 0; i < completeBeforeCancel; i++ {
		if results[i].Err != "" {
			t.Fatalf("pre-cancel job %d failed: %s", i, results[i].Err)
		}
		if _, ok := cache.Get(jobs[i].Key()); !ok {
			t.Fatalf("completed job %d missing from the cache", i)
		}
	}
	for i := completeBeforeCancel; i < len(jobs); i++ {
		if results[i].Err == "" {
			t.Fatalf("post-cancel job %d claims success", i)
		}
		if _, ok := cache.Get(jobs[i].Key()); ok {
			t.Fatalf("interrupted job %d left a cache entry; resume would wrongly skip it", i)
		}
	}

	// The resumed sweep: same jobs, same cache, fresh context and pool.
	var resumedFresh atomic.Int32
	p2 := New(Options{Jobs: 2, Cache: cache})
	results2, err := p2.Run(context.Background(), jobs, func(_ context.Context, j Job) (*metrics.Stats, error) {
		resumedFresh.Add(1)
		return statsFor(j), nil
	})
	if err != nil {
		t.Fatalf("resumed sweep failed: %v", err)
	}
	if n := resumedFresh.Load(); int(n) != len(jobs)-completeBeforeCancel {
		t.Fatalf("resume ran %d jobs fresh, want %d", n, len(jobs)-completeBeforeCancel)
	}
	cached := 0
	for i, res := range results2 {
		if res.Err != "" {
			t.Fatalf("resumed job %d failed: %s", i, res.Err)
		}
		if res.Cached {
			cached++
		}
		if res.Stats == nil || res.Stats.Cycles != statsFor(jobs[i]).Cycles {
			t.Fatalf("resumed job %d has wrong stats", i)
		}
	}
	if cached != completeBeforeCancel {
		t.Fatalf("resume served %d jobs from cache, want %d", cached, completeBeforeCancel)
	}
}
