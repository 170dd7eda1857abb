// Command perfbench is the repository benchmark. Each workload runs one
// paper figure grid through the submission path cmd/experiments and sweepd
// share (exp.PresetSpecs, Runner.Jobs, harness.Pool.Run) as a single
// closed-loop client: one job at a time, one engine worker.
//
//	python3 perfbench/run.py --workload paper-bfs --seed 42 --seconds 20 --trace 0
//
// --trace 0 times set-up and the grid end to end with tracing off.
// --trace 1 adds spans around the benchmark's calls into each package and
// a CPU profile of the grid, and reports per-layer metrics instead. The
// last line of standard output is one JSON result; the lines before it
// print the same metrics for people. README.md documents the workloads
// and what each metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"syscall"
	"time"

	"uvmsim/internal/harness"
	"uvmsim/internal/workload"
)

// setupReps is how many times a run sets up from scratch; setup_s is the
// median.
const setupReps = 3

// outDir holds, relative to the repository root, the scratch artifact
// stores of a run and the span files and CPU profiles of traced runs.
const outDir = ".bench_build/perfbench"

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // printed beside the value, not in the JSON
}

// report is everything one run prints.
type report struct {
	metrics   []metric
	info      []string // extra human-readable lines
	problems  []string // output-check failures
	attempted int
	failed    int
}

func (r *report) add(name string, value float64, unit, note string) {
	r.metrics = append(r.metrics, metric{name, value, unit, note})
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: paper-bfs, thrash-sssp or preload-replay")
	seed := fs.Uint64("seed", 42, "workload generation seed")
	seconds := fs.Int("seconds", 10, "untraced runs repeat the grid until this many seconds are measured (at least once)")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err == nil && ((*traceFlag != 0 && *traceFlag != 1) || *seconds < 1) {
		err = fmt.Errorf("--trace must be 0 or 1 and --seconds at least 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	rep, err := measure(context.Background(), w, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1)
	if err == nil {
		err = printReport(stdout, w, *seed, rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if len(rep.problems) > 0 {
		return 1
	}
	return 0
}

// measure runs one workload: set-up setupReps times, then the grid.
func measure(ctx context.Context, w benchWorkload, seed uint64, budget time.Duration, traced bool) (*report, error) {
	p, err := w.params(seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(outDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	runID := fmt.Sprintf("%s/seed%d/%d", w.name, seed, time.Now().UnixNano())
	tr := newTracer(runID, traced)
	setups, err := setUpRepeatedly(w, p, work, tr)
	if err != nil {
		return nil, err
	}
	r := setups[len(setups)-1].runner
	jobs, err := gridJobs(w, r)
	if err != nil {
		return nil, err
	}

	off := newTracer(runID, false)
	var passes []*gridOut
	var measured time.Duration
	for len(passes) == 0 || (!traced && measured < budget) {
		g, err := runGrid(ctx, r, jobs, off)
		if err != nil {
			return nil, err
		}
		passes = append(passes, g)
		measured += g.wall
	}
	var prof *profileShares
	if traced {
		g, shares, err := profiledGrid(ctx, r, jobs, tr, filepath.Join(outDir, fileStem(w, seed)+".cpu.pprof"))
		if err != nil {
			return nil, err
		}
		passes = append(passes, g)
		prof = shares
	}

	rep, err := checkPasses(w, passes, r.Builds.Stats())
	if err != nil {
		return nil, err
	}
	if !traced {
		endToEndMetrics(rep, setups, passes)
		return rep, nil
	}
	layerMetrics(rep, setups, passes[0], passes[len(passes)-1], prof, r.Builds.Stats())
	path := filepath.Join(outDir, fileStem(w, seed)+".spans.json")
	if err := tr.write(path, host()); err != nil {
		return nil, err
	}
	rep.info = append(rep.info, "spans: "+path)
	return rep, nil
}

// setUpRepeatedly sets w up setupReps times from scratch under work: cold
// workloads into a new empty artifact store each time, warm ones from a
// store filled first, untimed.
func setUpRepeatedly(w benchWorkload, p workload.Params, work string, tr *tracer) ([]*setupOut, error) {
	warmDir := filepath.Join(work, "warm")
	if w.warm {
		if err := fillStore(w, p, warmDir); err != nil {
			return nil, err
		}
	}
	var setups []*setupOut
	for i := 0; i < setupReps; i++ {
		dir := warmDir
		if !w.warm {
			dir = filepath.Join(work, fmt.Sprintf("cold-%d", i))
		}
		if i > 0 {
			setups[i-1].runner = nil // only the last set-up's runner serves the grid
		}
		debug.FreeOSMemory()
		s, err := setUp(w, p, dir, tr)
		if err != nil {
			return nil, err
		}
		if !w.warm {
			os.RemoveAll(dir) // the store served its set-up; keep the disk footprint to one
		}
		setups = append(setups, s)
	}
	return setups, nil
}

// checkPasses applies the output checks to every grid pass and starts the
// report with the lines every run prints.
func checkPasses(w benchWorkload, passes []*gridOut, builds harness.BuildStats) (*report, error) {
	rep := &report{}
	digest, err := simDigest(passes[0])
	if err != nil {
		return nil, err
	}
	for i, g := range passes {
		rep.problems = append(rep.problems, checkGrid(w, g, builds)...)
		if d, err := simDigest(g); err != nil {
			return nil, err
		} else if d != digest {
			rep.problems = append(rep.problems, fmt.Sprintf("grid pass %d: sim_digest %s differs from pass 0's %s", i, d, digest))
		}
	}
	first := passes[0]
	rep.attempted = len(first.points)
	for _, p := range first.points {
		if p.res.Err != "" && !p.capped {
			rep.failed++
		}
	}
	rep.info = append(rep.info, "host: "+host().String(), "sim_digest: "+digest)
	if gap, what, ok := w.paperGap(first.points); ok {
		rep.info = append(rep.info, fmt.Sprintf("paper_gap: %.6f ratio (%s)", gap, what))
	} else {
		rep.info = append(rep.info, "paper_gap: not reported ("+what+")")
	}
	rep.info = append(rep.info, fmt.Sprintf("failed_frac: %.6f ratio (%d of %d points stopped at the cycle cap)",
		float64(first.capped())/float64(len(first.points)), first.capped(), len(first.points)))
	return rep, nil
}

// endToEndMetrics adds the metrics of an untraced run.
func endToEndMetrics(rep *report, setups []*setupOut, passes []*gridOut) {
	walls := make([]float64, len(setups))
	for i, s := range setups {
		walls[i] = s.wall.Seconds()
	}
	gridWalls := make([]float64, len(passes))
	for i, g := range passes {
		gridWalls[i] = g.wall.Seconds()
	}
	grid := median(gridWalls)
	rep.add("setup_s", median(walls), "s", fmt.Sprintf("median of %d set-ups %.3f", len(walls), walls))
	rep.add("grid_s", grid, "s", fmt.Sprintf("median of %d passes over %d points %.3f", len(passes), len(passes[0].points), gridWalls))
	rep.add("sim_minstr_per_s", float64(passes[0].instrs())/1e6/grid, "Minstr/s", "warp-instructions per host second")
	rep.add("peak_rss_mb", peakRSSMB(), "MB", "whole process")
}

func fileStem(w benchWorkload, seed uint64) string {
	return fmt.Sprintf("%s-seed%d", w.name, seed)
}

// printReport writes the human-readable lines, then the JSON result.
func printReport(out io.Writer, w benchWorkload, seed uint64, rep *report) error {
	fmt.Fprintf(out, "perfbench %s seed=%d\n", w.name, seed)
	for _, line := range rep.info {
		fmt.Fprintln(out, line)
	}
	for _, m := range rep.metrics {
		fmt.Fprintf(out, "%-26s %16.6f %-9s %s\n", m.name, m.value, m.unit, m.note)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(out, "CHECK FAILED:", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(rep.metrics))
	for _, m := range rep.metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(rep.problems) == 0, rep.attempted, rep.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(b))
	return err
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB returns the process's peak resident set in MB (10^6 bytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}
