package exp

import (
	"fmt"
	"sort"

	"uvmsim/internal/config"
	"uvmsim/internal/harness"
	"uvmsim/internal/workload"
)

// This file is the submission surface of the experiment grids: the same
// (workload x config) enumerations the figure drivers warm through
// RunBatch, exposed as jobs so a caller with its own pool loop
// (perfbench) can run an identical grid. Everything here builds jobs
// through Runner.job, so a job from Jobs, one run by the CLI, and one
// warmed by a driver compute the same hash and cache key, and therefore
// share result-store entries byte for byte.

// ScaleParams returns the workload generation parameters for a named
// scale preset — the presets cmd/experiments exposes as -scale.
func ScaleParams(scale string, seed uint64) (workload.Params, error) {
	p := workload.Default()
	p.Seed = seed
	switch scale {
	case "paper":
		// Footprints of 300-650 64KB pages: the same capacity-to-live-set
		// geometry as the paper's truncated GraphBIG inputs (DESIGN.md §7)
		// at a cost of roughly an hour on one core.
		p.Vertices = 1 << 18
		p.AvgDegree = 16
		p.ThreadsPerBlock = 1024
	case "large":
		// Closest to the paper's absolute footprints; several hours serial.
		p.Vertices = 1 << 19
		p.AvgDegree = 16
		p.ThreadsPerBlock = 1024
	case "small":
		p.Vertices = 1 << 17
		p.AvgDegree = 8
		p.ThreadsPerBlock = 1024
	default:
		return workload.Params{}, fmt.Errorf("exp: unknown scale %q (have small, paper, large)", scale)
	}
	return p, nil
}

// DefaultBase returns the base simulated-system configuration the sweep
// frontends run under: Table 1 defaults plus the cycle cap that keeps
// deep-oversubscription points from thrashing for hours (they are then
// reported as lower bounds). Using one shared base is what makes
// perfbench's grids byte-identical to cmd/experiments'.
func DefaultBase() config.Config {
	base := config.Default()
	base.MaxCycles = 1_000_000_000
	return base
}

// Presets lists the figure grids submittable as a unit, sorted: every
// driver with a single-wave grid. fig01 (host-side trace analysis, no
// simulations), fig17 (a staged grid whose second wave derives cycle caps
// from the first), and table1 (no simulations) are absent: they cannot
// be expressed as one self-contained submission.
func Presets() []string {
	var ids []string
	for id, e := range experiments {
		if e.grid != nil {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// PresetSpecs returns the (workload x config) grid the named figure
// driver runs — exactly the specs Drive submits, honoring the runner's
// Suite/Ratios overrides.
func PresetSpecs(id string, r *Runner) ([]RunSpec, error) {
	grid := experiments[id].grid
	if grid == nil {
		return nil, fmt.Errorf("exp: no submittable preset %q (have %v)", id, Presets())
	}
	return grid(r), nil
}

// Jobs converts a grid of specs into harness jobs carrying exactly the
// identity (config hash, display label) Run and RunBatch use, so a job
// executed through any frontend lands on the same cache entry. Duplicate
// points within specs collapse onto one job.
func (r *Runner) Jobs(specs []RunSpec) ([]harness.Job, error) {
	seen := make(map[string]bool, len(specs))
	jobs := make([]harness.Job, 0, len(specs))
	for _, sp := range specs {
		j, err := r.job(sp)
		if err != nil {
			return nil, err
		}
		if !seen[j.Key()] {
			seen[j.Key()] = true
			jobs = append(jobs, j)
		}
	}
	return jobs, nil
}
