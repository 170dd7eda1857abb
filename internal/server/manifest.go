package server

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"uvmsim/internal/harness"
)

// Grid manifests make the daemon's grid state durable: every admitted
// grid writes a compact JSON file — the original submission, the
// effective Par/client, and one (cache key, status) pair per point —
// into a directory beside the result store, rewritten atomically (same
// temp-file+rename discipline as harness.Cache.Put) on admission and on
// every job completion. On startup the manifests are reloaded: each key
// is re-resolved against the result store (terminal statuses whose
// entries survive are restored verbatim; anything else — pending points,
// failures that left no entry, entries pruned since — is re-enqueued),
// so GET /grids/{id}, /results, and /figure keep answering across a
// restart instead of 404ing while the results sit in the store.

// manifest is the on-disk form of one grid's durable state.
type manifest struct {
	ID        string        `json:"id"`
	Client    string        `json:"client,omitempty"`
	Created   time.Time     `json:"created"`
	Finished  time.Time     `json:"finished,omitempty"`
	Par       int           `json:"par"`
	Coalesced int           `json:"coalesced,omitempty"`
	Request   SubmitRequest `json:"request"`
	Jobs      []manifestJob `json:"jobs"`
}

// manifestJob records one grid point's identity and last known status.
type manifestJob struct {
	Key    string `json:"key"`
	Status string `json:"status"`
}

// terminalStatus reports whether a manifest status needs no further
// execution (provided its result still resolves against the store).
func terminalStatus(st string) bool {
	switch st {
	case statusStored, statusDone, statusCached, statusFailed:
		return true
	}
	return false
}

// manifestPath maps a grid ID to its manifest file.
func (s *Server) manifestPath(id string) string {
	return filepath.Join(s.manifestDir, id+".json")
}

// manifestLocked snapshots a grid's durable state. Callers hold the
// server mutex.
func (s *Server) manifestLocked(g *grid) *manifest {
	m := &manifest{
		ID: g.id, Client: g.client, Created: g.created, Finished: g.finished,
		Par: g.par, Coalesced: g.coalesced, Request: g.req,
	}
	m.Jobs = make([]manifestJob, 0, len(g.jobs))
	for _, gj := range g.jobs {
		m.Jobs = append(m.Jobs, manifestJob{Key: gj.job.Key(), Status: gj.status})
	}
	return m
}

// writeManifest stores one manifest atomically (temp file + rename), so
// a daemon killed mid-write leaves either the previous manifest or the
// new one, never a truncated file.
func (s *Server) writeManifest(m *manifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("server: encoding manifest %s: %w", m.ID, err)
	}
	tmp, err := os.CreateTemp(s.manifestDir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("server: writing manifest %s: %w", m.ID, err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("server: writing manifest %s: %w", m.ID, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("server: writing manifest %s: %w", m.ID, err)
	}
	if err := os.Rename(tmp.Name(), s.manifestPath(m.ID)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("server: writing manifest %s: %w", m.ID, err)
	}
	return nil
}

// manifestAfter snapshots g's manifest as it will stand once
// g.finish(key, res, now) has run. Callers hold the server mutex.
func (s *Server) manifestAfter(g *grid, key string, res *harness.Result, now time.Time) *manifest {
	m := s.manifestLocked(g)
	if gj := g.byKey[key]; gj == nil || gj.res != nil {
		return m // finish will ignore the outcome too
	}
	for i := range m.Jobs {
		if m.Jobs[i].Key == key {
			m.Jobs[i].Status = resultStatus(res)
		}
	}
	if g.completed+1 == len(g.jobs) && m.Finished.IsZero() {
		m.Finished = now
	}
	return m
}

// persist rewrites the manifests of the given grids (snapshotting under
// the mutex, writing outside it). Holding persistMu throughout keeps an
// older snapshot from overwriting a newer one.
func (s *Server) persist(grids ...*grid) {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	ms := make([]*manifest, 0, len(grids))
	s.mu.Lock()
	for _, g := range grids {
		ms = append(ms, s.manifestLocked(g))
	}
	s.mu.Unlock()
	s.writeManifests(ms)
}

// writeManifests writes snapshotted manifests. Failures are logged, not
// fatal: the daemon keeps serving from memory and retries at the next
// completion. Callers hold persistMu.
func (s *Server) writeManifests(ms []*manifest) {
	if s.manifestDir == "" {
		return
	}
	for _, m := range ms {
		if err := s.writeManifest(m); err != nil {
			s.logf("%v", err)
		}
	}
}

// logf narrates through the pool reporter's writer when one is attached
// (the daemon points it at stderr; tests usually leave it nil).
func (s *Server) logf(format string, args ...any) {
	if w := s.pool.Reporter().W; w != nil {
		fmt.Fprintf(w, "sweepd: "+format+"\n", args...)
	}
}

// loadManifests restores every decodable manifest in the manifest
// directory, in ID order (which also replays grid IDs into the seq
// counter). Undecodable or unrebuildable manifests are skipped with a
// log line — same spirit as cache entries that fail to decode counting
// as misses.
func (s *Server) loadManifests() (restored int) {
	if s.manifestDir == "" {
		return 0
	}
	files, err := filepath.Glob(filepath.Join(s.manifestDir, "*.json"))
	if err != nil {
		s.logf("scanning manifests: %v", err)
		return 0
	}
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		var m manifest
		if err := json.Unmarshal(data, &m); err != nil || m.ID == "" {
			s.logf("skipping undecodable manifest %s", filepath.Base(f))
			continue
		}
		if err := s.restoreGrid(&m); err != nil {
			s.logf("skipping manifest %s: %v", m.ID, err)
			continue
		}
		restored++
	}
	return restored
}

// restoreGrid rebuilds one grid from its manifest: the same
// runner/specs/jobs pipeline as a live submission (so keys, labels, and
// job order are reproduced exactly), then the admission ladder with the
// manifest's recorded statuses in place of fresh classification.
func (s *Server) restoreGrid(m *manifest) error {
	runner, err := s.newRunner(&m.Request)
	if err != nil {
		return err
	}
	specs, err := submissionSpecs(&m.Request, runner)
	if err != nil {
		return err
	}
	jobs, err := runner.Jobs(specs)
	if err != nil {
		return err
	}
	par := m.Par
	if par <= 0 {
		par = s.pool.Par()
	}
	for i := range jobs {
		jobs[i].Par = par
	}
	exec := runner.Executor()
	if s.wrap != nil {
		exec = s.wrap(exec)
	}
	prev := make(map[string]string, len(m.Jobs))
	for _, mj := range m.Jobs {
		prev[mj.Key] = mj.Status
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.grids[m.ID] != nil {
		return fmt.Errorf("duplicate grid ID %s", m.ID)
	}
	var n int
	if _, err := fmt.Sscanf(m.ID, "g%d", &n); err == nil && n > s.seq {
		s.seq = n
	}
	g := &grid{
		id: m.ID, preset: m.Request.Preset, client: m.Client, runner: runner,
		par: par, created: m.Created, finished: m.Finished,
		coalesced: m.Coalesced, req: m.Request,
		byKey: make(map[string]*gridJob, len(jobs)),
	}
	var newTasks []*harness.Task
	var joined []*flight
	for _, j := range jobs {
		key := j.Key()
		if g.byKey[key] != nil {
			continue // within-submission duplicate (see handleSubmit)
		}
		gj := &gridJob{job: j, status: statusPending}
		g.jobs = append(g.jobs, gj)
		g.byKey[key] = gj
		if s.cache != nil {
			// Re-resolve against the store: an entry that still exists
			// serves the point without re-running it. Terminal recorded
			// statuses restore verbatim (failures that cached partial stats
			// included); a point still "pending" in the manifest but present
			// in the store completed just before the crash — the manifest
			// rewrite lost the race — and restores as a store hit, exactly
			// how a fresh admission would classify it.
			if res, ok := s.cache.Get(key); ok {
				st := prev[key]
				if !terminalStatus(st) {
					st = statusStored
				}
				res.ID = j.ID
				if st == statusCached || st == statusStored {
					res.Cached = true
				}
				gj.status = st
				gj.res = res
				g.completed++
				switch st {
				case statusFailed:
					g.failed++
				case statusStored:
					g.stored++
				}
				continue
			}
		}
		// Pending at the time of the crash, failed without a store entry,
		// or evicted since: the unfinished remainder re-enqueues.
		if f, ok := s.flights[key]; ok {
			joined = append(joined, f)
			continue
		}
		t := harness.NewTask(context.Background(), j, exec, m.Request.Priority)
		t.Client = m.Client
		newTasks = append(newTasks, t)
	}
	if err := s.queue.Push(newTasks...); err != nil {
		// The startup queue cannot take the remainder (capacity smaller
		// than the backlog, say): give those points a definite failed
		// outcome instead of a grid that never terminates.
		for _, t := range newTasks {
			gj := g.byKey[t.Job.Key()]
			gj.status = statusFailed
			gj.res = &harness.Result{
				ID: t.Job.ID, Workload: t.Job.Workload, Hash: t.Job.Hash,
				Seed: t.Job.Seed, Par: t.Job.Par,
				Err: fmt.Sprintf("sweepd: restart could not re-enqueue job: %v", err),
			}
			g.completed++
			g.failed++
		}
		newTasks = nil
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
	// Replay the restored outcomes into the event log so /events streams
	// history and terminates for fully restored grids.
	completed := 0
	for _, gj := range g.jobs {
		if gj.res == nil {
			continue
		}
		completed++
		ev := harness.JobEvent(gj.res, completed, len(g.jobs))
		ev.Status = gj.status
		g.appendEvent(ev)
	}
	g.maybeFinishEvent(time.Now())
	return nil
}

// janitor retires finished grids (and their manifests) once they are
// older than the configured TTL, bounding the in-memory grids map and
// per-grid event history of a long-running daemon. Results are NOT
// touched: the content-addressed store has its own lifecycle
// (Cache.PruneOlderThan), and an evicted grid's points remain instantly
// re-submittable from it.
func (s *Server) janitor(ctx context.Context) {
	interval := s.gridTTL / 4
	if interval > time.Minute {
		interval = time.Minute
	}
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			s.evictExpired(time.Now())
		}
	}
}

// evictExpired removes every finished grid whose terminal age exceeds
// the TTL, returning how many were retired.
func (s *Server) evictExpired(now time.Time) int {
	if s.gridTTL <= 0 {
		return 0
	}
	var evicted []*grid
	s.mu.Lock()
	for id, g := range s.grids {
		if !g.done() {
			continue
		}
		ref := g.finished
		if ref.IsZero() {
			ref = g.created
		}
		if now.Sub(ref) >= s.gridTTL {
			delete(s.grids, id)
			evicted = append(evicted, g)
		}
	}
	s.evicted += len(evicted)
	s.mu.Unlock()
	if s.manifestDir != "" {
		for _, g := range evicted {
			os.Remove(s.manifestPath(g.id))
		}
	}
	return len(evicted)
}
