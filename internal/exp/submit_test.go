package exp

import (
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/harness"
)

func TestScaleParams(t *testing.T) {
	paper, err := ScaleParams("paper", 7)
	if err != nil {
		t.Fatal(err)
	}
	if paper.Vertices != 1<<18 || paper.AvgDegree != 16 || paper.Seed != 7 {
		t.Errorf("paper scale = %+v", paper)
	}
	large, err := ScaleParams("large", 7)
	if err != nil {
		t.Fatal(err)
	}
	if large.Vertices <= paper.Vertices {
		t.Errorf("large (%d vertices) not larger than paper (%d)", large.Vertices, paper.Vertices)
	}
	small, err := ScaleParams("small", 7)
	if err != nil {
		t.Fatal(err)
	}
	if small.Vertices >= paper.Vertices {
		t.Errorf("small (%d vertices) not smaller than paper (%d)", small.Vertices, paper.Vertices)
	}
	if _, err := ScaleParams("galactic", 7); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestDefaultBaseCapsCycles(t *testing.T) {
	base := DefaultBase()
	if base.MaxCycles == 0 {
		t.Error("DefaultBase leaves MaxCycles unbounded; deep-oversubscription grid points could thrash forever")
	}
	if base.Policy != config.Default().Policy {
		t.Errorf("DefaultBase policy = %v, want the Table 1 default", base.Policy)
	}
}

// TestPresetsMatchExperiments asserts every simulation-grid driver is
// submittable as a preset, and that the deliberate exclusions are
// exactly the drivers that cannot be one self-contained submission.
func TestPresetsMatchExperiments(t *testing.T) {
	preset := make(map[string]bool)
	for _, id := range Presets() {
		preset[id] = true
	}
	excluded := map[string]bool{"table1": true, "fig01": true, "fig17": true}
	for _, id := range Experiments() {
		if preset[id] == excluded[id] {
			t.Errorf("experiment %s: preset=%v excluded=%v — exactly one must hold", id, preset[id], excluded[id])
		}
	}
	if _, err := PresetSpecs("fig99", tinyRunner(nil)); err == nil {
		t.Error("unknown preset accepted")
	}
}

// TestSharedGridPresets asserts figs 12/13/15 submit one identical grid,
// so their jobs land on the same store entries.
func TestSharedGridPresets(t *testing.T) {
	r := tinyRunner(nil)
	base, err := r.Jobs(mustSpecs(t, r, "fig12"))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig13", "fig15"} {
		jobs, err := r.Jobs(mustSpecs(t, r, id))
		if err != nil {
			t.Fatal(err)
		}
		if len(jobs) != len(base) {
			t.Fatalf("%s: %d jobs, fig12 has %d", id, len(jobs), len(base))
		}
		for i := range jobs {
			if jobs[i].Key() != base[i].Key() {
				t.Errorf("%s job %d key %q != fig12 key %q", id, i, jobs[i].Key(), base[i].Key())
			}
		}
	}
}

func mustSpecs(t *testing.T, r *Runner, id string) []RunSpec {
	t.Helper()
	specs, err := PresetSpecs(id, r)
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// TestJobsDedupe: overlapping grids collapse onto unique jobs.
func TestJobsDedupe(t *testing.T) {
	r := tinyRunner(nil)
	specs := mustSpecs(t, r, "fig16")
	doubled := append(append([]RunSpec(nil), specs...), specs...)
	jobs, err := r.Jobs(doubled)
	if err != nil {
		t.Fatal(err)
	}
	unique, err := r.Jobs(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(unique) {
		t.Errorf("doubled specs produced %d jobs, want %d", len(jobs), len(unique))
	}
}

// TestJobsMatchRunBatchIdentity is the cache-identity guard for the
// jobs Runner.Jobs emits: run through a bare Pool.Run (the path perfbench
// drives), they must land on exactly the cache entries a driver-side
// RunBatch of the same grid writes, so every one is served from the
// store instead of re-simulated.
func TestJobsMatchRunBatchIdentity(t *testing.T) {
	skipSlowUnderRace(t)
	cache, err := harness.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// The driver path populates the store.
	r1 := tinyRunner(harness.New(harness.Options{Jobs: 2, Cache: cache}))
	if err := r1.RunBatch(mustSpecs(t, r1, "fig16")); err != nil {
		t.Fatal(err)
	}
	// The job path against the same store, under a runner that shares
	// nothing with r1 but its inputs.
	pool := harness.New(harness.Options{Jobs: 2, Cache: cache})
	r2 := tinyRunner(pool)
	jobs, err := r2.Jobs(mustSpecs(t, r2, "fig16"))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) == 0 {
		t.Fatal("empty grid")
	}
	for _, j := range jobs {
		if _, ok := cache.Get(j.Key()); !ok {
			t.Errorf("job %s (key %s) missed the cache RunBatch populated", j.ID, j.Key())
		}
	}
	results, err := pool.Run(r2.ctx(), jobs, r2.simExecutor)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.Err != "" {
			t.Fatalf("%s: %v", res.ID, res.Err)
		}
		if !res.Cached {
			t.Errorf("%s: re-simulated instead of served from the shared store", res.ID)
		}
	}
}
