package exp

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/harness"
	"uvmsim/internal/telemetry"
	"uvmsim/internal/workload"
)

// tinyParams is small enough that one simulation takes well under a
// second — these tests run whole grids many times over. The scale is the
// smallest at which every grid variant terminates without hitting the
// cycle guard (smaller footprints thrash pathologically at 50%
// oversubscription).
func tinyParams() workload.Params {
	p := workload.Default()
	p.Vertices = 1 << 16
	p.AvgDegree = 6
	return p
}

// tinyRunner builds a two-workload runner at tiny scale, optionally
// attached to a harness pool.
func tinyRunner(pool *harness.Pool) *Runner {
	r := NewRunner(tinyParams(), config.Default())
	r.Suite = []string{"BFS-TTC", "PR"}
	r.Ratios = []float64{0.5, 1.0}
	r.Pool = pool
	return r
}

// render drives the given experiments on r and returns the concatenated
// rendered tables.
func render(t *testing.T, r *Runner, ids ...string) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, id := range ids {
		tab, err := Drive(id, r)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		tab.Fprint(&buf)
	}
	return buf.Bytes()
}

// TestParallelDeterminism is the jobs=1 vs jobs=8 regression guard: the
// same sweep must render byte-identical tables regardless of worker
// count (or of using the harness at all). Run under -race, it also
// shakes out shared-state races in the Runner's workload/result maps.
func TestParallelDeterminism(t *testing.T) {
	ids := []string{"fig11", "fig12", "fig17"}
	if raceEnabled {
		// The instrumented simulator is ~10x slower; one policy sweep
		// still drives concurrent workers over shared Runner state.
		ids = []string{"fig12"}
	}
	serial := render(t, tinyRunner(nil), ids...)
	one := render(t, tinyRunner(harness.New(harness.Options{Jobs: 1})), ids...)
	eight := render(t, tinyRunner(harness.New(harness.Options{Jobs: 8})), ids...)
	if !bytes.Equal(serial, one) {
		t.Fatalf("jobs=1 harness output differs from inline serial output:\n--- serial ---\n%s\n--- jobs=1 ---\n%s", serial, one)
	}
	if !bytes.Equal(serial, eight) {
		t.Fatalf("jobs=8 output differs from serial output:\n--- serial ---\n%s\n--- jobs=8 ---\n%s", serial, eight)
	}
}

// TestRepeatedRunsByteIdentical renders the same small figure grid twice
// with completely fresh runners and pools, asserting byte-identical
// output. The simulator must be a pure function of its inputs: map
// iteration order, scratch-buffer pooling, and index-rebuild timing in
// the hot-path data structures must never leak into results. This is the
// cheap in-process version of the CI guard that diffs two full
// cmd/experiments invocations.
func TestRepeatedRunsByteIdentical(t *testing.T) {
	ids := []string{"fig11"}
	if raceEnabled {
		ids = []string{"fig12"}
	}
	first := render(t, tinyRunner(harness.New(harness.Options{Jobs: 4})), ids...)
	second := render(t, tinyRunner(harness.New(harness.Options{Jobs: 4})), ids...)
	if !bytes.Equal(first, second) {
		t.Fatalf("repeated runs differ:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

// TestWarmersCoverDrivers asserts that each driver's declared grid covers
// every simulation the driver performs: after warming, table assembly
// must find all its runs memoized. A gap would silently serialize those
// runs; here it shows up as more memo entries than pool executions.
func TestWarmersCoverDrivers(t *testing.T) {
	raceSubset := map[string]bool{"fig03": true, "fig16": true, "fig17": true}
	for _, id := range Experiments() {
		if id == "table1" || id == "fig01" {
			continue // no simulation grid
		}
		if raceEnabled && !raceSubset[id] {
			continue // representative subset (incl. the staged fig17 warmer)
		}
		pool := harness.New(harness.Options{Jobs: 4})
		r := tinyRunner(pool)
		r.Suite = []string{"BFS-TTC"} // one workload bounds the cost; the grid structure is identical
		if _, err := Drive(id, r); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		pooled := pool.Reporter().Totals().Completed()
		r.mu.Lock()
		memoized := len(r.results)
		r.mu.Unlock()
		if memoized != pooled {
			t.Errorf("%s: %d runs memoized but only %d went through the pool — the warmer misses %d grid points",
				id, memoized, pooled, memoized-pooled)
		}
	}
}

// TestResumeFromCache runs a sweep into a cache, then replays it with a
// fresh runner: every job must be served from disk and the rendered
// tables must match byte for byte (the serialized stats round-trip).
func TestResumeFromCache(t *testing.T) {
	cache, err := harness.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"fig11", "fig14"}
	if raceEnabled {
		ids = []string{"fig16"}
	}
	first := render(t, tinyRunner(harness.New(harness.Options{Jobs: 4, Cache: cache})), ids...)
	if cache.Len() == 0 {
		t.Fatal("sweep left no cache entries")
	}

	pool := harness.New(harness.Options{Jobs: 4, Cache: cache})
	second := render(t, tinyRunner(pool), ids...)
	if !bytes.Equal(first, second) {
		t.Fatalf("resumed sweep output differs:\n--- first ---\n%s\n--- resumed ---\n%s", first, second)
	}
	tot := pool.Reporter().Totals()
	if tot.Done != 0 || tot.Cached == 0 {
		t.Fatalf("resume ran %d fresh jobs with %d hits; want all %d from cache",
			tot.Done, tot.Cached, tot.Submitted)
	}
}

// TestCycleLimitSurvivesCacheRoundTrip forces a cycle-limited run
// through the harness and cache, then checks RunLB still classifies it
// as a lower bound after resuming from disk (the error's sentinel chain
// does not serialize; the partial-stats invariant restores it).
func TestCycleLimitSurvivesCacheRoundTrip(t *testing.T) {
	cache, err := harness.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	capped := func(c *config.Config) { c.MaxCycles = 10_000 } // far below completion

	r1 := tinyRunner(harness.New(harness.Options{Jobs: 2, Cache: cache}))
	if err := r1.RunBatch([]RunSpec{{Name: "BFS-TTC", Mutate: capped}}); err != nil {
		t.Fatal(err)
	}
	s1, lb, err := r1.RunLB("BFS-TTC", capped)
	if err != nil || !lb {
		t.Fatalf("fresh capped run: lb=%v err=%v", lb, err)
	}

	r2 := tinyRunner(harness.New(harness.Options{Jobs: 2, Cache: cache}))
	if err := r2.RunBatch([]RunSpec{{Name: "BFS-TTC", Mutate: capped}}); err != nil {
		t.Fatal(err)
	}
	s2, lb, err := r2.RunLB("BFS-TTC", capped)
	if err != nil || !lb {
		t.Fatalf("cached capped run: lb=%v err=%v", lb, err)
	}
	if s1.Cycles != s2.Cycles || s1.NumBatches() != s2.NumBatches() {
		t.Fatalf("cached lower bound diverged: %d/%d cycles, %d/%d batches",
			s1.Cycles, s2.Cycles, s1.NumBatches(), s2.NumBatches())
	}
}

// TestWorkloadConcurrentBuild hammers the lazy workload memo from many
// goroutines; under -race this guards the Runner.Workload fix.
func TestWorkloadConcurrentBuild(t *testing.T) {
	r := tinyRunner(nil)
	const goroutines = 16
	ptrs := make(chan any, goroutines)
	for i := 0; i < goroutines; i++ {
		go func() {
			w, err := r.Workload("BFS-TTC")
			if err != nil {
				ptrs <- err
				return
			}
			ptrs <- w
		}()
	}
	var first any
	for i := 0; i < goroutines; i++ {
		got := <-ptrs
		if err, ok := got.(error); ok {
			t.Fatal(err)
		}
		if first == nil {
			first = got
		} else if got != first {
			t.Fatal("concurrent builds produced distinct workloads")
		}
	}
}

// TestTraceDirTracesFreshJobs: with TraceDir set, every job the pool runs
// fresh writes one execution trace, named from its ID, that passes
// telemetry.Check; a rerun served from the result cache writes none.
func TestTraceDirTracesFreshJobs(t *testing.T) {
	cache, err := harness.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// sweep runs fig16's grid through a fresh pool on the shared cache,
	// tracing into dir.
	sweep := func(dir string) (harness.Totals, []harness.Job) {
		t.Helper()
		pool := harness.New(harness.Options{Jobs: 2, Cache: cache})
		r := tinyRunner(pool)
		r.TraceDir = dir
		specs := mustSpecs(t, r, "fig16")
		jobs, err := r.Jobs(specs)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.RunBatch(specs); err != nil {
			t.Fatal(err)
		}
		return pool.Reporter().Totals(), jobs
	}
	traces := func(dir string) int {
		t.Helper()
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		return len(files)
	}

	dir := t.TempDir()
	tot, jobs := sweep(dir)
	if tot.Done != len(jobs) || tot.Failed != 0 {
		t.Fatalf("first sweep totals %+v, want %d fresh runs", tot, len(jobs))
	}
	if n := traces(dir); n != len(jobs) {
		t.Fatalf("%d trace files for %d fresh jobs", n, len(jobs))
	}
	for _, j := range jobs {
		buf, err := os.ReadFile(filepath.Join(dir, traceFileName(j.ID)))
		if err != nil {
			t.Fatalf("job %s: %v", j.ID, err)
		}
		if _, err := telemetry.Check(buf); err != nil {
			t.Fatalf("job %s: %v", j.ID, err)
		}
	}

	dir = t.TempDir()
	if tot, _ := sweep(dir); tot.Cached != len(jobs) {
		t.Fatalf("rerun totals %+v, want all %d jobs cached", tot, len(jobs))
	}
	if n := traces(dir); n != 0 {
		t.Fatalf("cache hits wrote %d trace files", n)
	}
}

func TestTraceFileNameSanitizesJobIDs(t *testing.T) {
	got := traceFileName("fig11/BFS-TTC/TO+UE r0.50")
	want := "fig11_BFS-TTC_TO_UE_r0.50.trace.json"
	if got != want {
		t.Fatalf("traceFileName = %q, want %q", got, want)
	}
}
