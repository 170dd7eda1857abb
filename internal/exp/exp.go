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
	"path/filepath"
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
	// TraceDir, when non-empty, makes every simulation the pool runs
	// fresh write its execution trace (Chrome trace-event JSON) into this
	// existing directory, named from the job ID (traceFileName). Cache
	// hits and inline runs write none.
	TraceDir string
	// Builds is the in-process build cache every job of a sweep shares:
	// one (workload, params, seed) point is built and compiled exactly
	// once per process while it stays cached, no matter how many parallel
	// jobs or figures need it. NewRunner installs a private cache;
	// replace it to share builds across runners.
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
// configuration.
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

// workloadKey is the build-cache identity of a workload: trace.ArtifactKey
// verbatim — codec version, name, the full generation-parameter hash,
// seed, warp size — so the same key addresses the in-memory entry and its
// on-disk artifact, and a codec bump or warp change is a structural miss
// rather than a convention.
func (r *Runner) workloadKey(name string) (string, error) {
	r.hashOnce.Do(func() {
		r.paramsHash, r.hashErr = harness.HashParts(r.Params)
	})
	if r.hashErr != nil {
		return "", r.hashErr
	}
	return trace.ArtifactKey(name, r.paramsHash, r.Params.Seed, r.Base.GPU.WarpSize), nil
}

// Workload returns (building, compiling and caching) the named workload,
// compiled at the base configuration's warp size. Concurrent callers for
// the same name coalesce onto one build through the shared build cache,
// and every simulation replays the same immutable arrays. The generator
// closures, and the graph behind them, become garbage once the compile
// returns.
func (r *Runner) Workload(name string) (*trace.Compiled, error) {
	key, err := r.workloadKey(name)
	if err != nil {
		return nil, err
	}
	v, err := r.Builds.Get(key, func() (any, error) {
		return workload.BuildCompiled(name, r.Params, r.Base.GPU.WarpSize)
	})
	if err != nil {
		return nil, err
	}
	return v.(*trace.Compiled), nil
}

// job turns one grid point into its harness job, the single place a run's
// identity is computed: the base config with the point's mutation
// applied, a hash over the workload parameters and that complete config,
// and the progress label. Run, RunBatch and Jobs all build jobs here, so
// an inline run, a pooled run and a job from Jobs run through a bare
// pool share one cache key, and worker count never influences results.
func (r *Runner) job(sp RunSpec) (harness.Job, error) {
	cfg := r.Base
	if sp.Mutate != nil {
		sp.Mutate(&cfg)
	}
	hash, err := harness.HashParts(resultsVersion, r.Params, cfg)
	if err != nil {
		return harness.Job{}, err
	}
	return harness.Job{
		ID:       runLabel(sp.Name, cfg),
		Workload: sp.Name,
		Config:   cfg,
		Hash:     hash,
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

// simExecutor is the harness executor for simulation jobs. With TraceDir
// set, the run is traced into a file named from the job ID; tracing
// alters no simulated timing, so traced and untraced runs produce
// identical stats and share cache entries.
func (r *Runner) simExecutor(_ context.Context, j harness.Job) (*metrics.Stats, error) {
	if r.TraceDir == "" {
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
	if err := writeTraceFile(tr, filepath.Join(r.TraceDir, traceFileName(j.ID))); err != nil {
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

// traceFileName derives a filesystem-safe trace file name from a job ID
// (IDs carry spaces and policy names like "TO+UE").
func traceFileName(id string) string {
	var b strings.Builder
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '.', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String() + ".trace.json"
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

// Experiments lists every driver by ID, sorted.
func Experiments() []string {
	ids := make([]string, 0, len(experiments))
	for id := range experiments {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Drive runs the driver with the given ID. When the runner has a harness
// pool, the driver's (workload x config) grid is first submitted through
// it (see grid.go), fanning the independent simulations out over the
// worker pool; the driver's table function then reads back memoized
// results.
func Drive(id string, r *Runner) (*Table, error) {
	e, ok := experiments[id]
	if !ok {
		return nil, fmt.Errorf("exp: unknown experiment %q (have %v)", id, Experiments())
	}
	if r.Pool != nil {
		var err error
		switch {
		case e.grid != nil:
			err = r.RunBatch(e.grid(r))
		case e.warm != nil:
			err = e.warm(r)
		}
		if err != nil {
			return nil, err
		}
	}
	return e.table(r)
}
