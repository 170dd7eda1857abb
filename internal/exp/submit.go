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
// RunBatch, exposed so other frontends — sweepd's HTTP API, chiefly —
// can submit an identical grid through their own scheduling. Everything
// here builds jobs through Runner.job, so a job submitted over HTTP, run by
// the CLI, or warmed by a driver computes the same hash, derived seed,
// and cache key, and therefore shares result-store entries byte for
// byte.

// ScaleParams returns the workload generation parameters for a named
// scale preset — the same presets cmd/experiments exposes as -scale, so
// a sweepd submission naming a scale reproduces the CLI's grids exactly.
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
// sweepd's results byte-identical to cmd/experiments'.
func DefaultBase() config.Config {
	base := config.Default()
	base.MaxCycles = 1_000_000_000
	return base
}

// presetGrids enumerates, for every single-wave driver, the grid it
// warms. fig01 (host-side trace analysis, no simulations), fig17 (a
// staged grid whose second wave derives cycle caps from the first), and
// table1 (no simulations) are deliberately absent: they cannot be
// expressed as one self-contained submission.
var presetGrids = map[string]func(*Runner) []RunSpec{
	"fig03":        gridFig03,
	"fig05":        gridFig05,
	"fig08":        gridFig08,
	"fig11":        gridFig11,
	"fig12":        gridFig12,
	"fig13":        gridFig12, // figs 12/13/15 share one grid
	"fig14":        gridFig14,
	"fig15":        gridFig12,
	"fig16":        gridFig16,
	"fig18":        gridFig18,
	"ext-runahead": gridExtRunahead,
}

// Presets lists the figure grids submittable as a unit, sorted.
func Presets() []string {
	ids := make([]string, 0, len(presetGrids))
	for id := range presetGrids {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// PresetSpecs returns the (workload x config) grid the named figure
// driver runs — exactly the specs its warmer submits, honoring the
// runner's Suite/Ratios overrides.
func PresetSpecs(id string, r *Runner) ([]RunSpec, error) {
	grid, ok := presetGrids[id]
	if !ok {
		return nil, fmt.Errorf("exp: no submittable preset %q (have %v)", id, Presets())
	}
	return grid(r), nil
}

// Jobs converts a grid of specs into harness jobs carrying exactly the
// identity (config hash, derived seed, display label) Run and RunBatch
// use, so a job executed through any frontend lands on the same cache
// entry. Duplicate points within specs collapse onto one job.
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

// Executor returns the harness executor running this runner's
// simulations — the same leaf RunBatch submits, including the traced
// path when the pool carries a trace directory. Handed to Pool.Serve
// tasks by sweepd.
func (r *Runner) Executor() harness.Executor { return r.simExecutor }
