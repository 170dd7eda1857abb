package exp

import (
	"uvmsim/internal/config"
)

// This file declares every driver in one table: the function that
// assembles its table and the (workload x config) grid it needs, as
// harness submissions. Drive warms the grid through the runner's pool
// before the driver assembles its table from the memoized results, so
// the independent simulations run in parallel while the table code stays
// the straight-line, order-preserving loop the serial path uses.
//
// The single-wave grids are also exposed as presets (submit.go):
// PresetSpecs returns the identical spec list a CLI figure warms. Grids
// must enumerate exactly the runs their driver performs: a missing point
// silently degrades to an inline serial run during assembly
// (TestWarmersCoverDrivers guards this).

// experiment is one driver. At most one of grid and warm is set; table1
// sets neither, since it runs no simulations.
type experiment struct {
	table func(*Runner) (*Table, error)
	// grid is the driver's single-wave grid, submittable as a preset.
	grid func(*Runner) []RunSpec
	// warm is a warm-up that is not one self-contained submission: fig01
	// builds traces only, and fig17 is staged (wave two's cycle caps
	// derive from wave one's results).
	warm func(*Runner) error
}

// experiments holds every driver by ID.
var experiments = map[string]experiment{
	"table1":       {table: Table1},
	"fig01":        {table: Fig01, warm: warmFig01},
	"fig03":        {table: Fig03, grid: gridFig03},
	"fig05":        {table: Fig05, grid: gridFig05},
	"fig08":        {table: Fig08, grid: gridFig08},
	"fig11":        {table: Fig11, grid: gridFig11},
	"fig12":        {table: Fig12, grid: gridFig12},
	"fig13":        {table: Fig13, grid: gridFig12}, // figs 12/13/15 share one grid
	"fig14":        {table: Fig14, grid: gridFig14},
	"fig15":        {table: Fig15, grid: gridFig12},
	"fig16":        {table: Fig16, grid: gridFig16},
	"fig17":        {table: Fig17, warm: warmFig17},
	"fig18":        {table: Fig18, grid: gridFig18},
	"ext-runahead": {table: ExtRunahead, grid: gridExtRunahead},
}

// policySpec returns a spec running name under the given policy.
func policySpec(name string, p config.Policy) RunSpec {
	return RunSpec{Name: name, Mutate: func(c *config.Config) { c.Policy = p }}
}

// suiteGrid builds base-plus-policies specs for every suite workload.
func suiteGrid(r *Runner, policies ...config.Policy) []RunSpec {
	var specs []RunSpec
	for _, name := range r.suite() {
		specs = append(specs, RunSpec{Name: name})
		for _, p := range policies {
			specs = append(specs, policySpec(name, p))
		}
	}
	return specs
}

// warmFig01 pre-builds Figure 1's workload traces (the driver analyzes
// them on the host; no simulations run).
func warmFig01(r *Runner) error {
	names := append(append([]string(nil), fig01Regular...), fig01Irregular...)
	return r.BuildWorkloads(names)
}

func gridFig03(r *Runner) []RunSpec {
	return []RunSpec{{Name: "BFS-TTC"}}
}

func gridFig05(r *Runner) []RunSpec {
	var specs []RunSpec
	for _, name := range r.suite() {
		specs = append(specs,
			RunSpec{Name: name, Mutate: func(c *config.Config) { c.Preload = true }},
			RunSpec{Name: name, Mutate: func(c *config.Config) {
				c.Preload = true
				c.TraditionalSwitch = true
			}})
	}
	return specs
}

func gridFig08(r *Runner) []RunSpec {
	var specs []RunSpec
	for _, name := range r.suite() {
		specs = append(specs,
			RunSpec{Name: name, Mutate: func(c *config.Config) { c.UVM.OversubscriptionRatio = 1.0 }},
			RunSpec{Name: name},
			policySpec(name, config.IdealEviction))
	}
	return specs
}

func gridFig11(r *Runner) []RunSpec {
	return suiteGrid(r, fig11Policies...)
}

func gridFig12(r *Runner) []RunSpec {
	return suiteGrid(r, config.TO)
}

func gridFig14(r *Runner) []RunSpec {
	return suiteGrid(r, config.TO, config.TOUE)
}

func gridFig16(r *Runner) []RunSpec {
	return []RunSpec{{Name: "BFS-TTC"}, policySpec("BFS-TTC", config.TO)}
}

// warmFig17 is the one staged grid: the ratio sweep's cycle caps derive
// from each workload's full-memory run, so those runs form a first wave
// whose results gate the second.
func warmFig17(r *Runner) error {
	set := r.sensitivitySet()
	full := make([]RunSpec, 0, len(set))
	for _, name := range set {
		full = append(full, RunSpec{Name: name, Mutate: func(c *config.Config) {
			c.UVM.OversubscriptionRatio = 1.0
		}})
	}
	if err := r.RunBatch(full); err != nil {
		return err
	}
	var specs []RunSpec
	for _, name := range set {
		fullStats, err := r.Run(name, func(c *config.Config) { c.UVM.OversubscriptionRatio = 1.0 })
		if err != nil {
			return nil // let the driver's own run surface the error
		}
		cap64 := 32 * fullStats.Cycles // mirrors Fig17's thrash cap
		for _, ratio := range r.ratios() {
			specs = append(specs,
				RunSpec{Name: name, Mutate: func(c *config.Config) {
					c.UVM.OversubscriptionRatio = ratio
					c.MaxCycles = cap64
				}},
				RunSpec{Name: name, Mutate: func(c *config.Config) {
					c.UVM.OversubscriptionRatio = ratio
					c.Policy = config.UE
					c.MaxCycles = cap64
				}})
		}
	}
	return r.RunBatch(specs)
}

func gridFig18(r *Runner) []RunSpec {
	var specs []RunSpec
	for _, name := range r.sensitivitySet() {
		for _, us := range fig18Times {
			specs = append(specs,
				RunSpec{Name: name, Mutate: func(c *config.Config) { c.UVM.FaultHandlingUS = us }},
				RunSpec{Name: name, Mutate: func(c *config.Config) {
					c.UVM.FaultHandlingUS = us
					c.Policy = config.TOUE
				}})
		}
	}
	return specs
}

func gridExtRunahead(r *Runner) []RunSpec {
	var specs []RunSpec
	for _, name := range r.suite() {
		specs = append(specs, RunSpec{Name: name})
		for _, v := range []struct {
			policy   config.Policy
			runahead int
		}{
			{config.Baseline, 4}, {config.Baseline, 16}, {config.TO, 0}, {config.TO, 4},
		} {
			specs = append(specs, RunSpec{Name: name, Mutate: func(c *config.Config) {
				c.Policy = v.policy
				c.UVM.RunaheadDepth = v.runahead
			}})
		}
	}
	return specs
}
