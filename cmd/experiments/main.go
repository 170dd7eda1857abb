// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-scale small|paper|large] [-jobs N] [-out results.txt] [ids...]
//
// With no ids, every experiment runs (table1, fig01, fig03, fig05, fig08,
// fig11..fig18). Each figure's (workload x config) grid fans out over a
// worker pool (-jobs; 0 means one worker per CPU, 1 is fully serial), so
// -scale paper takes minutes-not-hours on a many-core machine; results
// are identical at any worker count. With -cachedir (or -resume, which
// implies a default cache directory) every finished simulation is stored
// on disk, and an interrupted sweep — even one killed outright — resumes
// from the completed jobs instead of recomputing them. A failed experiment
// prints a FAILED line in place of its table; the remaining experiments
// still render, and the command then exits with status 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"uvmsim/internal/exp"
	"uvmsim/internal/harness"
	"uvmsim/internal/trace"
)

// defaultCacheDir is where -resume keeps results when -cachedir is unset.
const defaultCacheDir = ".uvmsim-cache"

// writeCSV writes one experiment's table as <dir>/<id>.csv.
func writeCSV(dir string, t *exp.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, t.ID+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return t.CSV(f)
}

// benchRecord is the machine-readable perf artifact (-bench-json).
type benchRecord struct {
	Scale            string   `json:"scale"`
	Workers          int      `json:"workers"`
	Experiments      []string `json:"experiments"`
	WallSeconds      float64  `json:"wall_seconds"`
	SimulatedSeconds float64  `json:"simulated_seconds"`
	SpeedupVsSerial  float64  `json:"speedup_vs_serial"`
	JobsTotal        int      `json:"jobs_total"`
	JobsRun          int      `json:"jobs_run"`
	JobsCapped       int      `json:"jobs_capped"`
	JobsFailed       int      `json:"jobs_failed"`
	CacheHits        int      `json:"cache_hits"`
	PeakBatchPages   int      `json:"peak_batch_pages"`
}

func main() { os.Exit(run()) }

// run drives the sweep and returns the process exit code.
func run() int {
	scale := flag.String("scale", "paper", "workload scale: small, paper, or large")
	out := flag.String("out", "", "also write results to this file")
	csvDir := flag.String("csvdir", "", "also write one CSV per experiment into this directory")
	seed := flag.Uint64("seed", 42, "graph generator seed")
	quiet := flag.Bool("q", false, "suppress per-run progress")
	suite := flag.String("suite", "", "comma-separated workload subset for the policy figures (default: the full 11-workload suite)")
	jobs := flag.Int("jobs", 1, "parallel simulation workers; 0 = one per CPU")
	timeout := flag.Duration("timeout", 0, "per-simulation wall-time limit (e.g. 30m); 0 = none")
	cacheDir := flag.String("cachedir", "", "on-disk result cache directory (enables resumable sweeps)")
	resume := flag.Bool("resume", false, "reuse cached results from an earlier (possibly interrupted) sweep; implies -cachedir "+defaultCacheDir+" when unset")
	benchJSON := flag.String("bench-json", "", "write sweep telemetry (wall time, speedup, cache hits) to this JSON file")
	traceDir := flag.String("trace-dir", "", "write a Chrome trace-event JSON execution trace per freshly-run job into this directory (cache hits are not traced)")
	compiled := flag.Bool("compiled", true, "replay workloads from compiled flat traces shared across jobs (identical results; -compiled=false regenerates streams live, using less memory)")
	artifactDir := flag.String("artifact-dir", "auto", "on-disk compiled-trace artifact store, shareable with cmd/uvmsim -artifacts; \"auto\" = <cachedir>/artifacts when a cache is on (else off), \"off\" disables")
	buildBytes := flag.Int64("build-cache-bytes", 0, "in-memory compiled-workload byte budget (LRU eviction past it); 0 = unbounded")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole sweep to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after the sweep) to this file")
	flag.Parse()

	stopProf, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer stopProf()

	p, err := exp.ScaleParams(*scale, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	ids := flag.Args()
	if len(ids) == 0 {
		ids = exp.Experiments()
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	var cache *harness.Cache
	if *resume && *cacheDir == "" {
		*cacheDir = defaultCacheDir
	}
	if *cacheDir != "" {
		var err error
		cache, err = harness.OpenCache(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}

	var progress io.Writer
	if !*quiet {
		progress = os.Stderr
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	reporter := harness.NewReporter(progress)
	pool := harness.New(harness.Options{
		Jobs:     *jobs,
		Timeout:  *timeout,
		Cache:    cache,
		Reporter: reporter,
	})

	// Ctrl-C / SIGTERM stops feeding new jobs and exits after the
	// in-flight ones; completed jobs are already in the cache, so a rerun
	// with -resume picks up where this sweep stopped. (A hard kill works
	// too: cache writes are atomic and per-job.)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The shared base (Table 1 defaults + the anti-thrash cycle cap) comes
	// from exp, the same base perfbench times these grids under.
	r := exp.NewRunner(p, exp.DefaultBase())
	r.Pool = pool
	r.Ctx = ctx
	r.TraceDir = *traceDir
	r.Live = !*compiled
	switch *artifactDir {
	case "auto":
		*artifactDir = ""
		if *cacheDir != "" {
			*artifactDir = filepath.Join(*cacheDir, "artifacts")
		}
	case "off":
		*artifactDir = ""
	}
	if *artifactDir != "" {
		store, err := trace.OpenArtifactStore(*artifactDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		r.Builds.SetDisk(store)
	}
	if *buildBytes > 0 {
		r.Builds.SetLimit(*buildBytes)
	}
	if *suite != "" {
		r.Suite = strings.Split(*suite, ",")
	}
	fmt.Fprintf(w, "uvmsim experiments  scale=%s vertices=%d degree=%d seed=%d\n\n",
		*scale, p.Vertices, p.AvgDegree, p.Seed)
	if !*quiet {
		fmt.Fprintf(os.Stderr, "sweep: %d workers, cache=%s\n", pool.Workers(), cacheLabel(cache))
	}
	start := time.Now()
	failed := 0
	for _, id := range ids {
		t0 := time.Now()
		table, err := exp.Drive(id, r)
		if err != nil {
			if ctx.Err() != nil {
				fmt.Fprintf(os.Stderr, "interrupted during %s; rerun with -resume to continue\n", id)
				return 1
			}
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			fmt.Fprintf(w, "== %s: FAILED: %v ==\n\n", id, err)
			failed++
			continue
		}
		table.Fprint(w)
		if *csvDir != "" {
			if err := writeCSV(*csvDir, table); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "%s done in %.1fs\n", id, time.Since(t0).Seconds())
		}
	}
	wall := time.Since(start)
	if !*quiet {
		fmt.Fprintf(os.Stderr, "all experiments done in %.1fs\n%s\n", wall.Seconds(), reporter.Summary())
	}
	if *benchJSON != "" {
		if err := writeBench(*benchJSON, *scale, ids, pool, wall); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d of %d experiments failed\n", failed, len(ids))
		return 1
	}
	return 0
}

// startProfiles starts a CPU profile and/or arranges a heap profile, per
// the -cpuprofile/-memprofile flags. The returned stop function finishes
// both; it is safe to call with either path empty.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			f.Close()
		}
	}, nil
}

func cacheLabel(c *harness.Cache) string {
	if c == nil {
		return "off"
	}
	return fmt.Sprintf("%s (%d entries)", c.Dir(), c.Len())
}

// writeBench records the sweep's performance telemetry. SpeedupVsSerial
// compares the wall time against the summed single-job wall times — the
// cost a one-worker sweep would have paid for the same fresh runs. (Per-
// job walls include scheduler contention, so the ratio is only a real
// speedup when workers do not exceed physical cores.)
func writeBench(path, scale string, ids []string, pool *harness.Pool, wall time.Duration) error {
	t := pool.Reporter().Totals()
	rec := benchRecord{
		Scale:            scale,
		Workers:          pool.Workers(),
		Experiments:      ids,
		WallSeconds:      wall.Seconds(),
		SimulatedSeconds: t.WallSum.Seconds(),
		JobsTotal:        t.Submitted,
		JobsRun:          t.Done,
		JobsCapped:       t.Capped,
		JobsFailed:       t.Failed,
		CacheHits:        t.Cached,
		PeakBatchPages:   t.PeakBatch,
	}
	if rec.WallSeconds > 0 {
		rec.SpeedupVsSerial = rec.SimulatedSeconds / rec.WallSeconds
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
