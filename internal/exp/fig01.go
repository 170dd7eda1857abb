package exp

import (
	"fmt"

	"uvmsim/internal/gpu"
	"uvmsim/internal/trace"
)

// fig01SMCounts are the active-core counts Figure 1 sweeps.
var fig01SMCounts = []int{1, 2, 4, 8, 12, 16}

// fig01Irregular and fig01Regular are the workload sets Figure 1
// contrasts (also the build grid warmFig01 fans out).
var (
	fig01Irregular = []string{"BC", "BFS-TTC", "GC-TTC", "KCORE", "PR", "SSSP-TWC"}
	fig01Regular   = []string{"CFD", "DWT", "GM", "H3D", "HS", "LUD"}
)

// Fig01 reproduces Figure 1: working set size versus the number of active
// GPU cores, for regular and irregular workloads. The working set with k
// active SMs is the average, over scheduling waves, of the fraction of the
// workload's pages touched by the blocks co-resident on those k SMs.
// Regular workloads' tiles are private, so the fraction scales with k;
// irregular workloads share most pages across blocks, so it barely moves.
func Fig01(r *Runner) (*Table, error) {
	irregular := fig01Irregular
	regular := fig01Regular

	cols := []string{"Workload", "Class"}
	for _, k := range fig01SMCounts {
		cols = append(cols, fmt.Sprintf("%d SMs", k))
	}
	t := &Table{
		ID:      "fig01",
		Title:   "Working set size vs. active GPU core count",
		Columns: cols,
		Notes: []string{
			"cells are the working set as a fraction of the workload footprint",
			"regular workloads scale with core count; irregular workloads do not (shared pages)",
		},
	}

	emit := func(names []string, class string) error {
		for _, name := range names {
			w, err := r.Workload(name)
			if err != nil {
				return err
			}
			row := []string{name, class}
			for _, k := range fig01SMCounts {
				frac := workingSetFraction(r, w, k)
				row = append(row, pct(frac))
			}
			t.Rows = append(t.Rows, row)
		}
		return nil
	}
	if err := emit(regular, "regular"); err != nil {
		return nil, err
	}
	if err := emit(irregular, "irregular"); err != nil {
		return nil, err
	}
	return t, nil
}

// workingSetFraction computes the Figure 1 metric for w on k active SMs.
func workingSetFraction(r *Runner, w *trace.Compiled, smCount int) float64 {
	k := busiestKernel(w)
	pageBytes := r.Base.UVM.PageBytes

	// Blocks co-resident on k SMs: k SMs x blocks-per-SM, in dispatch
	// order, wave by wave.
	perSM := gpu.SchedulableBlocks(&r.Base.GPU, k)
	concurrent := smCount * perSM
	if concurrent < 1 {
		concurrent = 1
	}

	// Union of all pages the kernel touches (the denominator).
	all := make(map[uint64]struct{})
	blockPages := make([]map[uint64]struct{}, k.Blocks)
	for b := 0; b < k.Blocks; b++ {
		blockPages[b] = trace.PagesTouched(k, b, pageBytes)
		for pg := range blockPages[b] {
			all[pg] = struct{}{}
		}
	}
	if len(all) == 0 {
		return 0
	}

	var fracSum float64
	waves := 0
	for start := 0; start < k.Blocks; start += concurrent {
		end := start + concurrent
		if end > k.Blocks {
			end = k.Blocks
		}
		union := make(map[uint64]struct{})
		for b := start; b < end; b++ {
			for pg := range blockPages[b] {
				union[pg] = struct{}{}
			}
		}
		fracSum += float64(len(union)) / float64(len(all))
		waves++
	}
	return fracSum / float64(waves)
}

// busiestKernel picks the kernel with the most blocks x threads (the main
// compute kernel), preferring later kernels on ties (warm phases).
func busiestKernel(w *trace.Compiled) *trace.CompiledKernel {
	kernels := w.Kernels()
	best := &kernels[0]
	bestWork := 0
	for i := range kernels {
		k := &kernels[i]
		work := k.Blocks * k.ThreadsPerBlock
		if work >= bestWork {
			best = k
			bestWork = work
		}
	}
	return best
}
