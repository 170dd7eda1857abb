package exp

import "uvmsim/internal/config"

// irregularSet is the 11-workload suite of the evaluation figures.
var irregularSet = []string{
	"BC", "BFS-DWC", "BFS-TA", "BFS-TF", "BFS-TTC", "BFS-TWC",
	"GC-DTC", "GC-TTC", "KCORE", "SSSP-TWC", "PR",
}

// Fig05 reproduces Figure 5: the performance cost of provisioning one
// extra thread block per SM via context switching in *traditional* GPUs
// (no demand paging — the whole footprint is preloaded). The paper reports
// an average 49% degradation; the shape to match is a relative performance
// well below 1 for every workload.
func Fig05(r *Runner) (*Table, error) {
	t := &Table{
		ID:      "fig05",
		Title:   "Relative performance with stall-triggered context switching, no paging",
		Columns: []string{"Workload", "Relative perf"},
		Notes: []string{
			"baseline: preloaded memory, no extra blocks; variant: +1 block per SM, switch on any full stall",
			"paper shape: all bars < 1.0 (average 0.51)",
		},
	}
	var vals []float64
	for _, name := range r.suite() {
		base, err := r.Run(name, func(c *config.Config) { c.Preload = true })
		if err != nil {
			return nil, err
		}
		trad, lb, err := r.RunLB(name, func(c *config.Config) {
			c.Preload = true
			c.TraditionalSwitch = true
		})
		if err != nil {
			return nil, err
		}
		rel := Speedup(base, trad) // <1 when switching hurts
		vals = append(vals, rel)
		t.Rows = append(t.Rows, []string{name, speedupMark(false, lb) + f2(rel)})
	}
	t.Rows = append(t.Rows, []string{"AVERAGE", f2(Mean(vals))})
	return t, nil
}

// Fig08 reproduces Figure 8: performance at 50% memory oversubscription,
// normalized to a GPU with unlimited memory, for the baseline and for
// ideal (zero-latency) eviction. Paper shape: baseline loses ~46% on
// average; ideal eviction recovers ~16%.
func Fig08(r *Runner) (*Table, error) {
	t := &Table{
		ID:      "fig08",
		Title:   "Performance normalized to unlimited memory (50% oversubscription)",
		Columns: []string{"Workload", "BASELINE", "IDEAL EVICTION"},
		Notes: []string{
			"unlimited memory: full footprint fits (cold demand-paging faults still occur)",
			"paper shape: baseline well below 1; ideal eviction consistently above baseline",
		},
	}
	var baseVals, idealVals []float64
	for _, name := range r.suite() {
		unlimited, err := r.Run(name, func(c *config.Config) { c.UVM.OversubscriptionRatio = 1.0 })
		if err != nil {
			return nil, err
		}
		base, err := r.Run(name, nil)
		if err != nil {
			return nil, err
		}
		ideal, err := r.Run(name, func(c *config.Config) { c.Policy = config.IdealEviction })
		if err != nil {
			return nil, err
		}
		b := Speedup(unlimited, base)
		iv := Speedup(unlimited, ideal)
		baseVals = append(baseVals, b)
		idealVals = append(idealVals, iv)
		t.Rows = append(t.Rows, []string{name, f2(b), f2(iv)})
	}
	t.Rows = append(t.Rows, []string{"AVERAGE", f2(Mean(baseVals)), f2(Mean(idealVals))})
	return t, nil
}
