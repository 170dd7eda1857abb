package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"uvmsim/internal/core"
	"uvmsim/internal/exp"
	"uvmsim/internal/harness"
	"uvmsim/internal/metrics"
)

// point is one grid point's outcome: the harness result plus what the
// executor read off the machine that ran it.
type point struct {
	job      harness.Job
	res      harness.Result
	capped   bool   // stopped with core.ErrCycleLimit
	events   uint64 // Sys.Dispatched()
	epochs   uint64 // Sys.Epochs()
	capacity int    // frames the machine was given
}

func (p *point) stats() *metrics.Stats { return p.res.Stats }

// gridOut is one pass over a figure grid.
type gridOut struct {
	points []point
	wall   time.Duration
	// Summed over the grid points.
	newMachine, run time.Duration
}

// gridJobs builds the figure's grid through the submission surface sweepd
// and cmd/experiments share.
func gridJobs(w benchWorkload, r *exp.Runner) ([]harness.Job, error) {
	specs, err := exp.PresetSpecs(w.figure, r)
	if err != nil {
		return nil, err
	}
	return r.Jobs(specs)
}

// runGrid runs jobs once through a one-worker, par-1 pool: one closed-loop
// client. Its executor does what Runner.Executor does at par 1 —
// Runner.Workload, core.NewMachine, Machine.Run — and also reads the
// machine's event and epoch counts.
func runGrid(ctx context.Context, r *exp.Runner, jobs []harness.Job, tr *tracer) (*gridOut, error) {
	out := &gridOut{}
	var mu sync.Mutex
	extra := make(map[string]point, len(jobs))
	grid := tr.begin("grid", 0)
	exec := func(_ context.Context, j harness.Job) (*metrics.Stats, error) {
		sp := tr.begin("point "+j.ID, grid.id)
		defer sp.end()
		wl, err := r.Workload(j.Workload)
		if err != nil {
			return nil, err
		}
		nm := tr.begin("core.NewMachine", sp.id)
		m, err := core.NewMachine(j.Config, wl)
		dNew := nm.end()
		if err != nil {
			return nil, err
		}
		rs := tr.begin("Machine.Run", sp.id)
		stats, err := m.Run()
		dRun := rs.end()
		mu.Lock()
		out.newMachine += dNew
		out.run += dRun
		extra[j.Key()] = point{
			capped:   errors.Is(err, core.ErrCycleLimit),
			events:   m.Sys.Dispatched(),
			epochs:   m.Sys.Epochs(),
			capacity: m.RT.Allocator().Capacity(),
		}
		mu.Unlock()
		if err != nil {
			return stats, fmt.Errorf("%s: %w", j.ID, err)
		}
		return stats, nil
	}
	pool := harness.New(harness.Options{Jobs: 1, Par: 1})
	// Start every pass from the same heap, with no memory left for the
	// background scavenger to return while the pass is timed.
	debug.FreeOSMemory()
	start := time.Now()
	results, err := pool.Run(ctx, jobs, exec)
	out.wall = time.Since(start)
	grid.end()
	if err != nil {
		return nil, err
	}
	mu.Lock()
	defer mu.Unlock()
	for i, res := range results {
		p := extra[jobs[i].Key()]
		p.job, p.res = jobs[i], res
		out.points = append(out.points, p)
	}
	return out, nil
}

// checkGrid applies the output checks to one pass and returns every
// violation found.
func checkGrid(w benchWorkload, g *gridOut, builds harness.BuildStats) []string {
	var bad []string
	instrs := map[string]uint64{}
	for _, p := range g.points {
		s := p.stats()
		switch {
		case p.res.Err != "" && !p.capped:
			bad = append(bad, fmt.Sprintf("%s: failed with %s", p.job.ID, p.res.Err))
			continue
		case s == nil:
			bad = append(bad, fmt.Sprintf("%s: no statistics", p.job.ID))
			continue
		}
		if int64(s.Migrations)-int64(s.Evictions) > int64(p.capacity) {
			bad = append(bad, fmt.Sprintf("%s: %d migrations - %d evictions exceed %d frames",
				p.job.ID, s.Migrations, s.Evictions, p.capacity))
		}
		if p.capped {
			continue
		}
		if want, ok := instrs[p.job.Workload]; ok && s.Instrs != want {
			bad = append(bad, fmt.Sprintf("%s: %d warp-instructions, other points of %s ran %d",
				p.job.ID, s.Instrs, p.job.Workload, want))
		}
		instrs[p.job.Workload] = s.Instrs
	}
	// Set-up must have left every grid workload resident: the grid itself
	// neither builds nor loads.
	if n := builds.Builds + builds.DiskLoads; n != int64(len(w.suite)) {
		bad = append(bad, fmt.Sprintf("build cache made %d builds and loads for %d workloads: set-up missed Runner.Workload's key",
			n, len(w.suite)))
	}
	return bad
}

// simDigest is a SHA-256 over every grid point's metrics.Summary JSON, in
// grid order: it changes exactly when a simulated statistic does.
func simDigest(g *gridOut) (string, error) {
	h := sha256.New()
	for _, p := range g.points {
		var sum any
		if s := p.stats(); s != nil {
			sum = s.Summary()
		}
		b, err := json.Marshal(sum)
		if err != nil {
			return "", err
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// instrs returns the warp-instructions simulated over the whole grid.
func (g *gridOut) instrs() uint64 {
	var n uint64
	for _, p := range g.points {
		if s := p.stats(); s != nil {
			n += s.Instrs
		}
	}
	return n
}

// capped returns how many points stopped at the cycle cap.
func (g *gridOut) capped() int {
	n := 0
	for _, p := range g.points {
		if p.capped {
			n++
		}
	}
	return n
}
