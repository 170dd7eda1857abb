package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"uvmsim/internal/config"
	"uvmsim/internal/exp"
	"uvmsim/internal/harness"
	"uvmsim/internal/metrics"
	"uvmsim/internal/workload"
)

// SubmitRequest is the POST /api/v1/grids body: either a figure preset
// (the exact grid the corresponding cmd/experiments driver warms) or an
// explicit list of runs, over a named workload scale. Field defaults
// reproduce the CLI: scale "paper", seed 42, base config Table 1 plus
// the anti-thrash cycle cap — so a preset submission's results are
// byte-identical to the CLI's for the same grid.
type SubmitRequest struct {
	// Preset names a figure grid (see exp.Presets); mutually exclusive
	// with Runs.
	Preset string `json:"preset,omitempty"`
	// Suite restricts a preset's workload set (the CLI's -suite).
	Suite []string `json:"suite,omitempty"`
	// Runs lists explicit grid points.
	Runs []RunRequest `json:"runs,omitempty"`
	// Scale is small, paper (default), or large.
	Scale string `json:"scale,omitempty"`
	// Seed is the graph generator seed (default 42).
	Seed *uint64 `json:"seed,omitempty"`
	// Vertices/AvgDegree override the scale's workload geometry.
	Vertices  int `json:"vertices,omitempty"`
	AvgDegree int `json:"avg_degree,omitempty"`
	// Par is the intra-run parallelism stamped on each job (default: the
	// pool's). Par > 1 is part of the cache key.
	Par int `json:"par,omitempty"`
	// Priority orders this client's own jobs; higher runs sooner (default
	// 0). Priority cannot jump another client's fair share — see
	// harness.Queue.
	Priority int `json:"priority,omitempty"`
	// Client identifies the submitter for weighted fair scheduling; the
	// X-Sweep-Client header sets it when the body leaves it empty.
	Client string `json:"client,omitempty"`
}

// RunRequest is one explicit grid point: a workload plus config
// deviations from the shared base. Omitted fields keep the base value.
type RunRequest struct {
	Workload          string   `json:"workload"`
	Policy            string   `json:"policy,omitempty"`
	Ratio             *float64 `json:"ratio,omitempty"`
	FaultUS           *float64 `json:"fault_us,omitempty"`
	Preload           bool     `json:"preload,omitempty"`
	TraditionalSwitch bool     `json:"traditional_switch,omitempty"`
	RunaheadDepth     *int     `json:"runahead_depth,omitempty"`
	MaxCycles         *uint64  `json:"max_cycles,omitempty"`
}

// spec converts the request into a grid point, validating names early so
// a bad submission fails at admission rather than inside a worker.
func (rr RunRequest) spec(known map[string]bool) (exp.RunSpec, error) {
	if !known[rr.Workload] {
		return exp.RunSpec{}, fmt.Errorf("unknown workload %q (see uvmsim -list)", rr.Workload)
	}
	var pol config.Policy
	havePol := rr.Policy != ""
	if havePol {
		var err error
		if pol, err = config.ParsePolicy(rr.Policy); err != nil {
			return exp.RunSpec{}, err
		}
	}
	return exp.RunSpec{Name: rr.Workload, Mutate: func(c *config.Config) {
		if havePol {
			c.Policy = pol
		}
		if rr.Ratio != nil {
			c.UVM.OversubscriptionRatio = *rr.Ratio
		}
		if rr.FaultUS != nil {
			c.UVM.FaultHandlingUS = *rr.FaultUS
		}
		if rr.Preload {
			c.Preload = true
		}
		if rr.TraditionalSwitch {
			c.TraditionalSwitch = true
		}
		if rr.RunaheadDepth != nil {
			c.UVM.RunaheadDepth = *rr.RunaheadDepth
		}
		if rr.MaxCycles != nil {
			c.MaxCycles = *rr.MaxCycles
		}
	}}, nil
}

// Job statuses reported by grid views. "stored" means answered from the
// result store at submission; "pending" covers queued and running.
const (
	statusStored  = "stored"
	statusPending = "pending"
	statusDone    = "done"
	statusCached  = "cached"
	statusFailed  = "failed"
)

// grid is one accepted submission's state. All fields are guarded by the
// server mutex; event waiters block on the wait channel, which is closed
// and replaced at every append (the queue's broadcast idiom).
type grid struct {
	id       string
	preset   string
	client   string // fair-share identity (header or submission field)
	runner   *exp.Runner
	par      int // the Par stamped on this grid's jobs (part of their keys)
	created  time.Time
	finished time.Time     // when the terminal event was appended (TTL anchor)
	req      SubmitRequest // the admitted submission, persisted in the manifest

	jobs  []*gridJob
	byKey map[string]*gridJob

	events    []harness.Event
	completed int
	failed    int
	stored    int
	coalesced int
	wait      chan struct{}
}

type gridJob struct {
	job    harness.Job
	status string
	res    *harness.Result
}

func (g *grid) done() bool { return g.completed == len(g.jobs) }

// appendEvent records one event and wakes the stream waiters. Callers
// hold the server mutex.
func (g *grid) appendEvent(ev harness.Event) {
	g.events = append(g.events, ev)
	if g.wait != nil {
		close(g.wait)
		g.wait = nil
	}
}

func (g *grid) waitCh() chan struct{} {
	if g.wait == nil {
		g.wait = make(chan struct{})
	}
	return g.wait
}

// resultStatus is the grid status a finished job's result earns.
func resultStatus(res *harness.Result) string {
	switch {
	case res.Err != "":
		return statusFailed
	case res.Cached:
		return statusCached
	}
	return statusDone
}

// finish records one job outcome at time now (called under the server
// mutex by the flight watcher, after writing the manifest that has it).
func (g *grid) finish(key string, res *harness.Result, now time.Time) {
	gj := g.byKey[key]
	if gj == nil || gj.res != nil {
		return
	}
	gj.res = res
	gj.status = resultStatus(res)
	g.completed++
	if gj.status == statusFailed {
		g.failed++
	}
	g.appendEvent(harness.JobEvent(res, g.completed, len(g.jobs)))
	g.maybeFinishEvent(now)
}

// maybeFinishEvent appends the terminal grid record once every job has
// an outcome, anchoring the TTL clock at now.
func (g *grid) maybeFinishEvent(now time.Time) {
	if !g.done() {
		return
	}
	if g.finished.IsZero() {
		g.finished = now
	}
	status := statusDone
	if g.failed > 0 {
		status = statusFailed
	}
	g.appendEvent(harness.Event{
		Type: "grid", ID: g.id, Status: status,
		Completed: g.completed, Submitted: len(g.jobs),
	})
}

// newRunner builds the per-submission runner: request geometry over the
// shared base config, sharing the server-wide workload build cache so
// concurrent grids at one scale build each workload once.
func (s *Server) newRunner(req *SubmitRequest) (*exp.Runner, error) {
	seed := uint64(42)
	if req.Seed != nil {
		seed = *req.Seed
	}
	scale := req.Scale
	if scale == "" {
		scale = "paper"
	}
	p, err := exp.ScaleParams(scale, seed)
	if err != nil {
		return nil, err
	}
	if req.Vertices > 0 {
		p.Vertices = req.Vertices
	}
	if req.AvgDegree > 0 {
		p.AvgDegree = req.AvgDegree
	}
	r := exp.NewRunner(p, exp.DefaultBase())
	r.Builds = s.build
	r.Suite = req.Suite
	return r, nil
}

// submissionSpecs resolves the request's grid points.
func submissionSpecs(req *SubmitRequest, r *exp.Runner) ([]exp.RunSpec, error) {
	switch {
	case req.Preset != "" && len(req.Runs) > 0:
		return nil, fmt.Errorf("preset and runs are mutually exclusive")
	case req.Preset != "":
		return exp.PresetSpecs(req.Preset, r)
	case len(req.Runs) > 0:
		known := make(map[string]bool)
		for _, name := range workload.All() {
			known[name] = true
		}
		specs := make([]exp.RunSpec, 0, len(req.Runs))
		for i, rr := range req.Runs {
			sp, err := rr.spec(known)
			if err != nil {
				return nil, fmt.Errorf("runs[%d]: %w", i, err)
			}
			specs = append(specs, sp)
		}
		return specs, nil
	default:
		return nil, fmt.Errorf("submission needs a preset or runs (presets: %v)", exp.Presets())
	}
}

// handleSubmit admits one grid: store hits answer immediately, points
// already in flight for another grid are joined, duplicate points within
// the submission coalesce onto one gridJob, and only the genuinely new
// points are queued — all-or-nothing, so a 429 leaves no partial state
// behind.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad submission body: %v", err)
		return
	}
	if req.Client == "" {
		req.Client = r.Header.Get("X-Sweep-Client")
	}
	runner, err := s.newRunner(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	specs, err := submissionSpecs(&req, runner)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	jobs, err := runner.Jobs(specs)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "building jobs: %v", err)
		return
	}
	if len(jobs) == 0 {
		writeError(w, http.StatusBadRequest, "empty grid")
		return
	}
	// Pool.Par is the *requested* parallelism (never trimmed to this
	// host's cores), so the stamped keys — and therefore single-flight
	// joins and store hits — are identical across hosts; the pool caps
	// what actually executes (harness.RunPar).
	par := req.Par
	if par <= 0 {
		par = s.pool.Par()
	}
	for i := range jobs {
		jobs[i].Par = par // stamp before keying: Par > 1 is part of the key
	}
	exec := runner.Executor()
	if s.wrap != nil {
		exec = s.wrap(exec)
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is draining for shutdown")
		return
	}
	s.seq++
	g := &grid{
		id:      fmt.Sprintf("g%04d", s.seq),
		preset:  req.Preset,
		client:  req.Client,
		runner:  runner,
		par:     par,
		created: time.Now(),
		req:     req,
		byKey:   make(map[string]*gridJob, len(jobs)),
	}
	var newTasks []*harness.Task
	var joined []*flight
	for _, j := range jobs {
		// Coalesce duplicate keys within one submission onto a single
		// gridJob. Without this, a repeated point would create two jobs
		// but one byKey entry, both tasks would queue, the second flight
		// registration would shadow the first, and the one watcher that
		// fires could only ever complete one of the two — g.completed
		// would never reach len(g.jobs) and the grid would hang (events
		// streaming forever, /figure 409ing forever). The runner's Jobs
		// also dedups today; admission must not hang if a job source
		// doesn't.
		if g.byKey[j.Key()] != nil {
			g.coalesced++
			continue
		}
		gj := &gridJob{job: j, status: statusPending}
		g.jobs = append(g.jobs, gj)
		g.byKey[j.Key()] = gj
		if s.cache != nil {
			if res, ok := s.cache.Get(j.Key()); ok {
				res.ID = j.ID
				res.Cached = true
				gj.status = statusStored
				gj.res = res
				g.stored++
				g.completed++
				continue
			}
		}
		if f, ok := s.flights[j.Key()]; ok {
			joined = append(joined, f)
			g.coalesced++
			continue
		}
		t := harness.NewTask(context.Background(), j, exec, req.Priority)
		t.Client = req.Client
		newTasks = append(newTasks, t)
	}
	if err := s.queue.Push(newTasks...); err != nil {
		// Nothing registered yet: the rejected submission leaves no grid,
		// no flights, and no queue entries.
		s.mu.Unlock()
		switch {
		case errors.Is(err, harness.ErrQueueFull):
			s.retryAfterHeader(w)
			writeError(w, http.StatusTooManyRequests,
				"queue full (%d pending, cap %d); %d new jobs rejected — retry later",
				s.queue.Len(), s.queue.Cap(), len(newTasks))
		default:
			writeError(w, http.StatusServiceUnavailable, "queue closed: server is shutting down")
		}
		return
	}
	s.grids[g.id] = g
	for _, f := range joined {
		f.grids[g] = struct{}{}
	}
	for _, t := range newTasks {
		f := &flight{task: t, grids: map[*grid]struct{}{g: {}}}
		s.flights[t.Job.Key()] = f
		go s.watch(t.Job.Key(), t)
	}
	// Store hits become events now that counters are final; they carry
	// the daemon-only "stored" status.
	for _, gj := range g.jobs {
		if gj.status == statusStored {
			ev := harness.JobEvent(gj.res, g.completed, len(g.jobs))
			ev.Status = statusStored
			g.appendEvent(ev)
		}
	}
	g.maybeFinishEvent(time.Now())
	status := s.gridStatusLocked(g)
	s.mu.Unlock()
	s.persist(g) // durable from admission on: a restart re-enqueues the remainder
	writeJSON(w, http.StatusAccepted, status)
}

// watch waits for one flight's task and fans its result out to every
// grid that joined it, persisting before publishing: each grid's
// manifest is rewritten with the outcome before the outcome shows in the
// grid's status, results or events, the terminal event included. Only
// watch changes a grid after admission, and persistMu serializes
// watches, so each grid is still as snapshotted when finish runs.
func (s *Server) watch(key string, t *harness.Task) {
	<-t.Done()
	res := t.Result()
	now := time.Now()
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	var touched []*grid
	var ms []*manifest
	s.mu.Lock()
	f := s.flights[key]
	delete(s.flights, key)
	if f != nil {
		for g := range f.grids {
			touched = append(touched, g)
			ms = append(ms, s.manifestAfter(g, key, &res, now))
		}
	}
	s.mu.Unlock()
	s.writeManifests(ms)
	s.mu.Lock()
	for _, g := range touched {
		g.finish(key, &res, now)
	}
	s.mu.Unlock()
}

// GridStatus is the submission/status body.
type GridStatus struct {
	ID        string      `json:"id"`
	Preset    string      `json:"preset,omitempty"`
	Client    string      `json:"client,omitempty"`
	Created   time.Time   `json:"created"`
	Total     int         `json:"total"`
	Completed int         `json:"completed"`
	Failed    int         `json:"failed"`
	Stored    int         `json:"stored"`
	Coalesced int         `json:"coalesced"`
	Done      bool        `json:"done"`
	Jobs      []JobStatus `json:"jobs"`
}

// JobStatus is one grid point's progress.
type JobStatus struct {
	ID       string `json:"id"`
	Key      string `json:"key"`
	Workload string `json:"workload"`
	Status   string `json:"status"`
	Err      string `json:"error,omitempty"`
}

func (s *Server) gridStatusLocked(g *grid) GridStatus {
	st := GridStatus{
		ID: g.id, Preset: g.preset, Client: g.client, Created: g.created,
		Total: len(g.jobs), Completed: g.completed, Failed: g.failed,
		Stored: g.stored, Coalesced: g.coalesced, Done: g.done(),
	}
	for _, gj := range g.jobs {
		js := JobStatus{ID: gj.job.ID, Key: gj.job.Key(), Workload: gj.job.Workload, Status: gj.status}
		if gj.res != nil {
			js.Err = gj.res.Err
		}
		st.Jobs = append(st.Jobs, js)
	}
	return st
}

// lookupGrid resolves the {id} path segment.
func (s *Server) lookupGrid(w http.ResponseWriter, r *http.Request) *grid {
	id := r.PathValue("id")
	s.mu.Lock()
	g := s.grids[id]
	s.mu.Unlock()
	if g == nil {
		writeError(w, http.StatusNotFound, "no grid %q", id)
	}
	return g
}

func (s *Server) handleGridStatus(w http.ResponseWriter, r *http.Request) {
	g := s.lookupGrid(w, r)
	if g == nil {
		return
	}
	s.mu.Lock()
	st := s.gridStatusLocked(g)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// handleGridEvents streams the grid's progress as JSON lines — the same
// harness.Event records a CLI sweep writes with -progress-json —
// replaying history first, then following live until the grid finishes
// or the client disconnects. The terminal record has type "grid".
func (s *Server) handleGridEvents(w http.ResponseWriter, r *http.Request) {
	g := s.lookupGrid(w, r)
	if g == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	var buf []byte
	next := 0
	for {
		s.mu.Lock()
		events := g.events[next:]
		next = len(g.events)
		finished := g.done()
		var wait chan struct{}
		if !finished {
			wait = g.waitCh()
		}
		s.mu.Unlock()
		for _, ev := range events {
			buf = buf[:0]
			line, err := ev.AppendJSONLine(buf)
			if err != nil {
				return
			}
			if _, err := w.Write(line); err != nil {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		if finished {
			return
		}
		select {
		case <-wait:
		case <-r.Context().Done():
			return
		}
	}
}

// JobResult is one grid point's outcome as served by /results: identity,
// status, and the metrics.Summary computed from the stored stats —
// byte-identical to what cmd/experiments derives for the same point.
type JobResult struct {
	ID       string           `json:"id"`
	Key      string           `json:"key"`
	Workload string           `json:"workload"`
	Seed     uint64           `json:"seed"`
	Par      int              `json:"par,omitempty"`
	Status   string           `json:"status"`
	Err      string           `json:"error,omitempty"`
	WallNS   int64            `json:"wall_ns,omitempty"`
	Summary  *metrics.Summary `json:"summary,omitempty"`
}

func (s *Server) handleGridResults(w http.ResponseWriter, r *http.Request) {
	g := s.lookupGrid(w, r)
	if g == nil {
		return
	}
	// Snapshot identities and result pointers under the lock; the
	// per-job Summary() computation — seconds of work for a large grid —
	// runs after release, so a results render never stalls submissions
	// and event appends server-wide. Safe because results are immutable
	// once recorded: finish() sets gj.res exactly once.
	s.mu.Lock()
	if !g.done() {
		st := s.gridStatusLocked(g)
		s.mu.Unlock()
		writeJSON(w, http.StatusConflict, st)
		return
	}
	out := struct {
		ID      string      `json:"id"`
		Preset  string      `json:"preset,omitempty"`
		Total   int         `json:"total"`
		Failed  int         `json:"failed"`
		Results []JobResult `json:"results"`
	}{ID: g.id, Preset: g.preset, Total: len(g.jobs), Failed: g.failed}
	snap := make([]*harness.Result, 0, len(g.jobs))
	for _, gj := range g.jobs {
		out.Results = append(out.Results, JobResult{
			ID: gj.job.ID, Key: gj.job.Key(), Workload: gj.job.Workload,
			Seed: gj.job.Seed, Par: gj.job.Par, Status: gj.status,
		})
		snap = append(snap, gj.res)
	}
	s.mu.Unlock()
	for i, res := range snap {
		if res == nil {
			continue
		}
		out.Results[i].Err = res.Err
		out.Results[i].WallNS = res.WallNS
		if res.Stats != nil {
			sum := res.Stats.Summary()
			out.Results[i].Summary = &sum
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleGridFigure renders a completed preset grid as the figure table
// cmd/experiments prints (?format=csv for the CSV form). Every point is
// already memoized in the submission's runner-shared store, so assembly
// is pure table work.
func (s *Server) handleGridFigure(w http.ResponseWriter, r *http.Request) {
	g := s.lookupGrid(w, r)
	if g == nil {
		return
	}
	s.mu.Lock()
	preset := g.preset
	finished := g.done()
	failed := g.failed
	runner := g.runner
	par := g.par
	keys := make([]string, 0, len(g.jobs))
	for _, gj := range g.jobs {
		keys = append(keys, gj.job.Key())
	}
	s.mu.Unlock()
	if preset == "" {
		writeError(w, http.StatusBadRequest, "grid %s was not submitted as a figure preset", g.id)
		return
	}
	if !finished {
		writeError(w, http.StatusConflict, "grid %s is still running", g.id)
		return
	}
	if failed > 0 {
		writeError(w, http.StatusConflict, "grid %s has %d failed points; no table", g.id, failed)
		return
	}
	// Every point must still resolve in the store: if one was pruned
	// since the grid finished (Cache.PruneOlderThan, or an operator
	// sweeping the store directly), exp.Drive below would silently
	// re-simulate it inside this handler with no timeout. Refuse instead.
	if s.cache != nil {
		for _, key := range keys {
			if _, ok := s.cache.Get(key); !ok {
				writeError(w, http.StatusGone,
					"results evicted — stored result for %q is no longer in the store; resubmit the grid", key)
				return
			}
		}
	}
	// Assemble through a cache-backed pool stamping the grid's own Par
	// (Par is part of the cache key): every grid point hits the store, so
	// the driver never simulates inside the handler.
	asm := exp.NewRunner(runner.Params, runner.Base)
	asm.Builds = s.build
	asm.Suite = runner.Suite
	asm.Pool = harness.New(harness.Options{Jobs: 1, Par: par, Cache: s.cache})
	table, err := exp.Drive(preset, asm)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "assembling %s: %v", preset, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if r.URL.Query().Get("format") == "csv" {
		table.CSV(w)
		return
	}
	table.Fprint(w)
}
