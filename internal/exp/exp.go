// Package exp contains one driver per table and figure of the paper's
// evaluation. Each driver runs the simulations it needs (sharing runs
// through a memoizing Runner, since Figures 11-15 reuse the same policy
// sweep) and renders a plain-text table with the same rows/series the
// paper reports.
package exp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"sync"

	"uvmsim/internal/config"
	"uvmsim/internal/core"
	"uvmsim/internal/harness"
	"uvmsim/internal/metrics"
	"uvmsim/internal/telemetry"
	"uvmsim/internal/trace"
	"uvmsim/internal/workload"
)

// resultsVersion salts the harness cache key. Bump it whenever the
// simulation semantics change (new mechanisms, timing fixes), so cache
// entries written by an older simulator are never mistaken for current
// results.
const resultsVersion = 5 // v5: explicit (cycle, src, seq) event keys fix one tie order independent of the engine's schedule, reordering some same-cycle ties vs v4

// Table is a rendered experiment result.
type Table struct {
	ID      string // "fig11", "table1", ...
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Fprint renders the table as aligned plain text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	printRow(t.Columns)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// CSV writes the table as RFC-4180-ish CSV (cells containing commas or
// quotes are quoted). The first record is the column header.
func (t *Table) CSV(w io.Writer) error {
	writeRec := func(cells []string) error {
		for i, c := range cells {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			if _, err := io.WriteString(w, c); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "\n")
		return err
	}
	if err := writeRec(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRec(row); err != nil {
			return err
		}
	}
	return nil
}

func pad(s string, n int) string {
	if len(s) >= n {
		return s
	}
	return s + strings.Repeat(" ", n-len(s))
}

// Runner memoizes simulation runs across experiment drivers. It is safe
// for concurrent use: harness workers may build workloads and run
// simulations in parallel, and duplicate requests for the same
// (workload, config) point coalesce onto one execution.
type Runner struct {
	Params workload.Params
	Base   config.Config
	// Progress, when non-nil, receives one line per fresh simulation.
	Progress io.Writer
	// Suite overrides the 11-workload irregular set used by the policy
	// figures; benchmarks scope it down to bound cost. Nil means the full
	// paper suite.
	Suite []string
	// Ratios overrides the Figure 17 oversubscription sweep.
	Ratios []float64
	// Pool, when non-nil, is the sweep harness every driver's run grid
	// fans out through (Drive warms the grid before assembling tables).
	// Nil runs every simulation inline on the calling goroutine.
	Pool *harness.Pool
	// Ctx cancels harness sweeps; nil means context.Background().
	Ctx context.Context
	// Live disables the compiled flat-trace replay path: workloads are
	// then simulated from freshly generated streams, as before the
	// compile step existed. Results are byte-identical either way (the
	// determinism suite guards this); live trades replay speed for not
	// holding the flattened access arrays in memory.
	Live bool
	// Builds is the in-process build cache every job of a sweep shares:
	// one (workload, params, seed) point is built — and, unless Live is
	// set, compiled — exactly once per process, no matter how many
	// parallel jobs or figures need it. NewRunner installs a private
	// cache; replace it to share builds across runners.
	Builds *harness.BuildCache

	mu      sync.Mutex
	results map[string]*runOutcome

	hashOnce   sync.Once
	paramsHash string
	hashErr    error
}

// runOutcome is a claimed simulation run: ready closes once stats/err
// are set. Outcomes memoize errors too (a cycle-limit abort keeps its
// partial stats), so a failing point never re-executes within a process.
type runOutcome struct {
	ready chan struct{}
	stats *metrics.Stats
	err   error
}

// NewRunner builds a runner over the given workload parameters and base
// configuration. The compiled replay path is on by default (set Live to
// opt out).
func NewRunner(p workload.Params, base config.Config) *Runner {
	return &Runner{
		Params:  p,
		Base:    base,
		Builds:  harness.NewBuildCache(),
		results: make(map[string]*runOutcome),
	}
}

// ctx returns the runner's sweep context.
func (r *Runner) ctx() context.Context {
	if r.Ctx != nil {
		return r.Ctx
	}
	return context.Background()
}

// suite returns the irregular-workload set the policy figures sweep.
func (r *Runner) suite() []string {
	if len(r.Suite) > 0 {
		return r.Suite
	}
	return irregularSet
}

// workloadKey is the build-cache identity of a workload. Compiled builds
// use trace.ArtifactKey verbatim — codec version, name, the full
// generation-parameter hash, seed, warp size — so the same key addresses
// the in-memory entry and its on-disk artifact, and a codec bump or warp
// change is a structural miss rather than a convention. Live builds
// (closures, never persisted) get a distinct "live|" namespace.
func (r *Runner) workloadKey(name string) (string, error) {
	r.hashOnce.Do(func() {
		r.paramsHash, r.hashErr = harness.HashParts(r.Params)
	})
	if r.hashErr != nil {
		return "", r.hashErr
	}
	key := trace.ArtifactKey(name, r.paramsHash, r.Params.Seed, r.Base.GPU.WarpSize)
	if r.Live {
		key = "live|" + key
	}
	return key, nil
}

// Workload returns (building and caching) the named workload. Concurrent
// callers for the same name coalesce onto one build through the shared
// build cache; unless Live is set, the build is compiled to the flat
// trace form once and every simulation replays the same immutable arrays.
func (r *Runner) Workload(name string) (*trace.Workload, error) {
	key, err := r.workloadKey(name)
	if err != nil {
		return nil, err
	}
	v, err := r.Builds.Get(key, func() (any, error) {
		w, err := workload.Build(name, r.Params)
		if err != nil || r.Live {
			return w, err
		}
		// Cache the *Compiled itself, not a view: that is what the build
		// cache's disk tier can persist (and size for eviction). The live
		// closures (and the graph behind them) become garbage once this
		// returns.
		return trace.Compile(w, r.Base.GPU.WarpSize)
	})
	if err != nil {
		return nil, err
	}
	switch w := v.(type) {
	case *trace.Compiled:
		// The view is memoized inside the *Compiled, so concurrent callers
		// share one *Workload and an entry the byte budget evicts takes
		// its view with it.
		return w.Workload(), nil
	case *trace.Workload:
		return w, nil
	default:
		return nil, fmt.Errorf("exp: build cache holds %T for %q", v, key)
	}
}

// job turns one grid point into its harness job, the single place a run's
// identity is computed: the base config with the point's mutation
// applied, a hash over the workload parameters and that complete config
// (seed field zeroed, since the seed is derived *from* the hash), the
// derived per-job seed stamped into the config, and the progress label.
// Run, RunBatch and Jobs all build jobs here, so an inline run, a pooled
// run and a job from Jobs run through a bare pool share one cache key,
// and worker count never influences results.
func (r *Runner) job(sp RunSpec) (harness.Job, error) {
	cfg := r.Base
	if sp.Mutate != nil {
		sp.Mutate(&cfg)
	}
	cfg.Seed = 0
	hash, err := harness.HashParts(resultsVersion, r.Params, cfg)
	if err != nil {
		return harness.Job{}, err
	}
	cfg.Seed = harness.DeriveSeed(r.Params.Seed, sp.Name, hash)
	return harness.Job{
		ID:       runLabel(sp.Name, cfg),
		Workload: sp.Name,
		Config:   cfg,
		Hash:     hash,
		Seed:     cfg.Seed,
	}, nil
}

// claim returns the memo entry for a job key, creating it when absent;
// fresh reports that the caller created it and so must execute the run
// and close ready.
func (r *Runner) claim(key string) (e *runOutcome, fresh bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.results[key]; ok {
		return e, false
	}
	e = &runOutcome{ready: make(chan struct{})}
	r.results[key] = e
	return e, true
}

// Run simulates the named workload under the base config modified by
// mutate (which may be nil), memoizing on the resulting job's key.
func (r *Runner) Run(name string, mutate func(*config.Config)) (*metrics.Stats, error) {
	j, err := r.job(RunSpec{Name: name, Mutate: mutate})
	if err != nil {
		return nil, err
	}
	e, fresh := r.claim(j.Key())
	if !fresh {
		<-e.ready
		return e.stats, e.err
	}
	if r.Progress != nil {
		fmt.Fprintf(r.Progress, "running %s ...\n", j.ID)
	}
	e.stats, e.err = r.simulate(j)
	close(e.ready)
	return e.stats, e.err
}

// simulate executes one job (the shared leaf of the inline and harness
// paths). Cycle-limit aborts return their partial stats with a wrapped
// core.ErrCycleLimit, matching what RunLB callers unwrap.
func (r *Runner) simulate(j harness.Job) (*metrics.Stats, error) {
	w, err := r.Workload(j.Workload)
	if err != nil {
		return nil, err
	}
	stats, err := core.Run(j.Config, w)
	if err != nil {
		return stats, fmt.Errorf("exp: %s|%s: %w", j.Workload, j.Hash, err)
	}
	return stats, nil
}

// runLabel renders a run's human-readable identity for progress output.
func runLabel(name string, cfg config.Config) string {
	s := fmt.Sprintf("%s %v r%.2f h%.0fus", name, cfg.Policy,
		cfg.UVM.OversubscriptionRatio, cfg.UVM.FaultHandlingUS)
	if cfg.Preload {
		s += " preload"
	}
	if cfg.TraditionalSwitch {
		s += " trad"
	}
	if cfg.UVM.RunaheadDepth > 0 {
		s += fmt.Sprintf(" ra%d", cfg.UVM.RunaheadDepth)
	}
	if cfg.MaxCycles > 0 {
		s += fmt.Sprintf(" cap%d", cfg.MaxCycles)
	}
	return s
}

// RunSpec names one point of a sweep grid: a workload plus a config
// mutation (nil means the base configuration).
type RunSpec struct {
	Name   string
	Mutate func(*config.Config)
}

// cycleLimitErr restores errors.Is(err, core.ErrCycleLimit) semantics for
// outcomes that crossed the harness (where only the message survives
// serialization into the result cache).
type cycleLimitErr struct{ msg string }

func (e *cycleLimitErr) Error() string { return e.msg }
func (e *cycleLimitErr) Unwrap() error { return core.ErrCycleLimit }

// RunBatch submits a grid of runs through the harness pool, memoizing
// every outcome so subsequent Run calls for the same points return
// instantly. Per-job failures are memoized, not fatal: a crashed or
// timed-out config fails that point when a driver asks for it, never the
// sweep. With no pool attached this is a no-op — drivers then execute
// their grids inline through Run.
func (r *Runner) RunBatch(specs []RunSpec) error {
	if r.Pool == nil {
		return nil
	}
	jobs, err := r.Jobs(specs)
	if err != nil {
		return err
	}
	fresh := jobs[:0] // skip points already memoized or in flight
	var entries []*runOutcome
	for _, j := range jobs {
		if e, ok := r.claim(j.Key()); ok {
			fresh = append(fresh, j)
			entries = append(entries, e)
		}
	}
	results, err := r.Pool.Run(r.ctx(), fresh, r.simExecutor)
	for i := range results {
		e := entries[i]
		e.stats, e.err = outcomeOf(&results[i])
		close(e.ready)
	}
	return err
}

// simExecutor is the harness executor for simulation jobs. When the pool
// runs with a trace directory, the job's context carries a destination
// path and the run is traced; tracing alters no simulated timing, so
// traced and untraced runs produce identical stats and share cache
// entries.
func (r *Runner) simExecutor(ctx context.Context, j harness.Job) (*metrics.Stats, error) {
	path := harness.TracePath(ctx)
	if path == "" {
		return r.simulate(j)
	}
	w, err := r.Workload(j.Workload)
	if err != nil {
		return nil, err
	}
	stats, tr, err := core.RunTraced(j.Config, w)
	if err != nil {
		return stats, fmt.Errorf("exp: %s|%s: %w", j.Workload, j.Hash, err)
	}
	if err := writeTraceFile(tr, path); err != nil {
		return nil, fmt.Errorf("exp: %s|%s: %w", j.Workload, j.Hash, err)
	}
	return stats, nil
}

// writeTraceFile exports one run's execution trace as Chrome trace-event
// JSON.
func writeTraceFile(tr *telemetry.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// outcomeOf converts a harness result (fresh or cache-resumed) into the
// (stats, err) pair Run reports. Partial stats with an error can only be
// a cycle-limit abort — core.Run returns stats on no other failure — so
// the sentinel is restored for RunLB.
func outcomeOf(res *harness.Result) (*metrics.Stats, error) {
	switch {
	case res.Err == "":
		return res.Stats, nil
	case res.Stats != nil:
		return res.Stats, &cycleLimitErr{msg: res.Err}
	default:
		return nil, errors.New(res.Err)
	}
}

// BuildWorkloads pre-builds the named workloads through the harness pool
// (trace generation is CPU-heavy too). No-op without a pool; build
// results land in the same memo Workload consults.
func (r *Runner) BuildWorkloads(names []string) error {
	if r.Pool == nil {
		return nil
	}
	jobs := make([]harness.Job, 0, len(names))
	for _, name := range names {
		jobs = append(jobs, harness.Job{
			ID:       "build " + name,
			Workload: name,
			NoCache:  true, // value is the in-memory trace, not stats
		})
	}
	_, err := r.Pool.Run(r.ctx(), jobs, func(_ context.Context, j harness.Job) (*metrics.Stats, error) {
		if _, err := r.Workload(j.Workload); err != nil {
			return nil, err
		}
		return &metrics.Stats{}, nil
	})
	return err
}

// RunLB is Run for sweeps that may enter pathological thrashing regimes:
// a cycle-limit abort is reported as a lower bound rather than an error.
func (r *Runner) RunLB(name string, mutate func(*config.Config)) (s *metrics.Stats, lowerBound bool, err error) {
	s, err = r.Run(name, mutate)
	if err != nil && errors.Is(err, core.ErrCycleLimit) && s != nil {
		return s, true, nil
	}
	return s, false, err
}

// Speedup returns base cycles / variant cycles.
func Speedup(base, variant *metrics.Stats) float64 {
	if variant.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(variant.Cycles)
}

// GeoMean returns the geometric mean of vals (the standard aggregate
// for speedups), or 0 for no values. Any value <= 0, such as the 0
// Speedup reports for a run with no cycles, makes the mean NaN.
func GeoMean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		if v <= 0 {
			return math.NaN()
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}

// Mean returns the arithmetic mean, or 0 for empty input.
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// f2 and f0 format floats for table cells.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }

// pct formats a fraction as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// Experiments lists every driver by ID.
func Experiments() []string {
	ids := []string{
		"table1", "fig01", "fig03", "fig05", "fig08", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
		"ext-runahead",
	}
	sort.Strings(ids)
	return ids
}

// Drive runs the driver with the given ID. When the runner has a harness
// pool, the driver's (workload x config) grid is first submitted through
// it (see grid.go), fanning the independent simulations out over the
// worker pool; the assembly loop below then reads back memoized results.
func Drive(id string, r *Runner) (*Table, error) {
	if r.Pool != nil {
		var err error
		if grid, ok := presetGrids[id]; ok {
			err = r.RunBatch(grid(r))
		} else if warm := warmers[id]; warm != nil {
			err = warm(r)
		}
		if err != nil {
			return nil, err
		}
	}
	switch id {
	case "table1":
		return Table1(r)
	case "fig01":
		return Fig01(r)
	case "fig03":
		return Fig03(r)
	case "fig05":
		return Fig05(r)
	case "fig08":
		return Fig08(r)
	case "fig11":
		return Fig11(r)
	case "fig12":
		return Fig12(r)
	case "fig13":
		return Fig13(r)
	case "fig14":
		return Fig14(r)
	case "fig15":
		return Fig15(r)
	case "fig16":
		return Fig16(r)
	case "fig17":
		return Fig17(r)
	case "fig18":
		return Fig18(r)
	case "ext-runahead":
		return ExtRunahead(r)
	}
	return nil, fmt.Errorf("exp: unknown experiment %q (have %v)", id, Experiments())
}
