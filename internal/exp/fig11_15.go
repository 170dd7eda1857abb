package exp

import (
	"uvmsim/internal/config"
	"uvmsim/internal/metrics"
)

// fig11Policies is the Figure 11 policy set, after the BASELINE reference.
var fig11Policies = []config.Policy{
	config.BaselineCompressed, config.TO, config.UE, config.TOUE, config.ETC,
}

// Figures 11-15 read every point with RunLB, so a run stopped at the cycle
// cap renders as a marked cell instead of failing the figure. A capped
// run's cycles are a lower bound, which gives a speedup base/variant a
// direction: ">=" over a capped baseline, "<=" for a capped variant, and
// "~" when both capped. Any other cell computed from a capped run (a
// count, mean or rate) is only approximate ("~"), and so is an AVERAGE
// over any marked input.

// cappedNote is the note a figure carries when any of its points capped;
// uncapped tables stay byte-identical to their unmarked form.
const cappedNote = "marked cells (>=, <=, ~) include runs stopped at the cycle cap"

// speedupMark returns the mark of a speedup base/variant given which of
// the two runs capped.
func speedupMark(baseLB, variantLB bool) string {
	switch {
	case baseLB && variantLB:
		return "~"
	case baseLB:
		return ">="
	case variantLB:
		return "<="
	}
	return ""
}

// approxMark returns "~" when any input of a non-speedup cell capped.
func approxMark(lbs ...bool) string {
	for _, lb := range lbs {
		if lb {
			return "~"
		}
	}
	return ""
}

// markedCol accumulates one table column for its AVERAGE cell, which is
// marked "~" when any of its inputs was marked.
type markedCol struct {
	vals   []float64
	marked bool
}

// add records v and returns its cell: format(v) behind mark.
func (c *markedCol) add(v float64, mark string, format func(float64) string) string {
	c.vals = append(c.vals, v)
	c.marked = c.marked || mark != ""
	return mark + format(v)
}

// avg returns the AVERAGE cell, format(aggregate(vals)).
func (c *markedCol) avg(aggregate func([]float64) float64, format func(float64) string) string {
	return approxMark(c.marked) + format(aggregate(c.vals))
}

// noteCapped adds cappedNote to t when any point behind it capped.
func noteCapped(t *Table, capped bool) {
	if capped {
		t.Notes = append(t.Notes, cappedNote)
	}
}

// baseAndTO reads a workload's BASELINE and TO runs, the pair Figures
// 12, 13 and 15 compare.
func (r *Runner) baseAndTO(name string) (base, to *metrics.Stats, baseLB, toLB bool, err error) {
	if base, baseLB, err = r.RunLB(name, nil); err != nil {
		return
	}
	to, toLB, err = r.RunLB(name, func(c *config.Config) { c.Policy = config.TO })
	return
}

// Fig11 reproduces Figure 11: speedup of every policy over the baseline
// with state-of-the-art prefetching, per workload plus the average.
// Headline numbers to approximate: TO+UE ≈ 2.0x, ≈1.79x over ETC.
func Fig11(r *Runner) (*Table, error) {
	t := &Table{
		ID:      "fig11",
		Title:   "Speedup over BASELINE (state-of-the-art prefetching), 50% oversubscription",
		Columns: []string{"Workload", "BASELINE", "+PCIeC", "TO", "UE", "TO+UE", "ETC"},
		Notes: []string{
			"paper: TO+UE averages 2.0x over BASELINE, 1.81x over +PCIeC, 1.79x over ETC",
		},
	}
	cols := make([]markedCol, 1+len(fig11Policies))
	capped := false
	for _, name := range r.suite() {
		base, baseLB, err := r.RunLB(name, nil)
		if err != nil {
			return nil, err
		}
		capped = capped || baseLB
		row := []string{name, cols[0].add(1, approxMark(baseLB), f2)}
		for i, p := range fig11Policies {
			p := p
			s, lb, err := r.RunLB(name, func(c *config.Config) { c.Policy = p })
			if err != nil {
				return nil, err
			}
			capped = capped || lb
			row = append(row, cols[i+1].add(Speedup(base, s), speedupMark(baseLB, lb), f2))
		}
		t.Rows = append(t.Rows, row)
	}
	avg := []string{"AVERAGE"}
	for i := range cols {
		avg = append(avg, cols[i].avg(GeoMean, f2))
	}
	t.Rows = append(t.Rows, avg)
	noteCapped(t, capped)
	return t, nil
}

// Fig12 reproduces Figure 12: total number of batches with thread
// oversubscription, relative to the baseline (paper: −51% on average).
func Fig12(r *Runner) (*Table, error) {
	t := &Table{
		ID:      "fig12",
		Title:   "Total number of batches (thread oversubscription vs baseline)",
		Columns: []string{"Workload", "BASELINE", "TO", "Relative"},
		Notes:   []string{"paper: TO reduces the batch count by 51% on average"},
	}
	var rel markedCol
	capped := false
	for _, name := range r.suite() {
		base, to, baseLB, toLB, err := r.baseAndTO(name)
		if err != nil {
			return nil, err
		}
		capped = capped || baseLB || toLB
		v := float64(to.NumBatches()) / float64(base.NumBatches())
		t.Rows = append(t.Rows, []string{name,
			approxMark(baseLB) + f0(float64(base.NumBatches())),
			approxMark(toLB) + f0(float64(to.NumBatches())),
			rel.add(v, approxMark(baseLB, toLB), pct)})
	}
	t.Rows = append(t.Rows, []string{"AVERAGE", "", "", rel.avg(Mean, pct)})
	noteCapped(t, capped)
	return t, nil
}

// Fig13 reproduces Figure 13: average batch size with thread
// oversubscription relative to baseline (paper: 2.27x on average).
func Fig13(r *Runner) (*Table, error) {
	t := &Table{
		ID:      "fig13",
		Title:   "Average batch size (thread oversubscription vs baseline)",
		Columns: []string{"Workload", "BASELINE (pages)", "TO (pages)", "Relative"},
		Notes:   []string{"paper: TO processes 2.27x more page faults per batch on average"},
	}
	var rel markedCol
	capped := false
	for _, name := range r.suite() {
		base, to, baseLB, toLB, err := r.baseAndTO(name)
		if err != nil {
			return nil, err
		}
		capped = capped || baseLB || toLB
		v := to.MeanBatchPages() / base.MeanBatchPages()
		t.Rows = append(t.Rows, []string{name,
			approxMark(baseLB) + f2(base.MeanBatchPages()),
			approxMark(toLB) + f2(to.MeanBatchPages()),
			rel.add(v, approxMark(baseLB, toLB), f2)})
	}
	t.Rows = append(t.Rows, []string{"AVERAGE", "", "", rel.avg(Mean, f2)})
	noteCapped(t, capped)
	return t, nil
}

// Fig14 reproduces Figure 14: average batch processing time of TO and
// TO+UE normalized to baseline (paper: TO+UE −27% despite bigger batches;
// UE cuts it by 60% when combined with TO).
func Fig14(r *Runner) (*Table, error) {
	t := &Table{
		ID:      "fig14",
		Title:   "Average batch processing time normalized to baseline",
		Columns: []string{"Workload", "BASELINE", "TO", "TO+UE"},
		Notes:   []string{"paper: TO+UE reduces average batch processing time by 27%"},
	}
	var baseCol, toCol, toueCol markedCol
	capped := false
	for _, name := range r.suite() {
		base, to, baseLB, toLB, err := r.baseAndTO(name)
		if err != nil {
			return nil, err
		}
		toue, toueLB, err := r.RunLB(name, func(c *config.Config) { c.Policy = config.TOUE })
		if err != nil {
			return nil, err
		}
		capped = capped || baseLB || toLB || toueLB
		b := base.MeanBatchProcessingTime()
		t.Rows = append(t.Rows, []string{name,
			baseCol.add(1, approxMark(baseLB), f2),
			toCol.add(to.MeanBatchProcessingTime()/b, approxMark(baseLB, toLB), f2),
			toueCol.add(toue.MeanBatchProcessingTime()/b, approxMark(baseLB, toueLB), f2)})
	}
	t.Rows = append(t.Rows, []string{"AVERAGE",
		baseCol.avg(Mean, f2), toCol.avg(Mean, f2), toueCol.avg(Mean, f2)})
	noteCapped(t, capped)
	return t, nil
}

// Fig15 reproduces Figure 15: premature eviction rates, baseline versus
// thread oversubscription. Paper shape: TO decreases premature evictions
// for most (topological) workloads; the dynamic controller bounds the
// damage elsewhere.
func Fig15(r *Runner) (*Table, error) {
	t := &Table{
		ID:      "fig15",
		Title:   "Premature eviction rate (fraction of evictions later re-faulted)",
		Columns: []string{"Workload", "BASELINE", "TO"},
	}
	capped := false
	for _, name := range r.suite() {
		base, to, baseLB, toLB, err := r.baseAndTO(name)
		if err != nil {
			return nil, err
		}
		capped = capped || baseLB || toLB
		t.Rows = append(t.Rows, []string{name,
			approxMark(baseLB) + pct(base.PrematureEvictionRate()),
			approxMark(toLB) + pct(to.PrematureEvictionRate())})
	}
	noteCapped(t, capped)
	return t, nil
}
