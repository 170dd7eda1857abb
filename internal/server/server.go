// Package server implements the sweepd HTTP daemon: experiment-grid
// submissions over JSON, executed on a persistent harness worker pool
// behind a bounded priority queue, served from content-addressed shared
// result and trace stores with cross-request single-flight.
//
// The service contract is cache-key identity (harness.Job.Key): two
// clients asking for the same grid point — or a client asking for a
// point an earlier CLI sweep already ran against the same store — share
// one simulation. A point found in the result store is answered without
// queueing ("stored"); a point already in flight for another request is
// joined, not re-queued; only genuinely new points consume queue
// capacity. When a grid does not fit the queue the submission is
// rejected whole (HTTP 429 with a Retry-After estimate), never half
// admitted.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"uvmsim/internal/harness"
	"uvmsim/internal/telemetry"
	"uvmsim/internal/trace"
)

// Options configures a Server.
type Options struct {
	// Pool is the persistent worker pool (required). Its Cache is the
	// shared result store and its TraceDir — which should be opened with
	// TraceKeyed so filenames are derivable from job keys — the shared
	// trace store.
	Pool *harness.Pool
	// QueueCap bounds pending (not yet running) jobs; a grid submission
	// that would overflow it is rejected with 429. <= 0 means unbounded.
	QueueCap int
	// WrapExec, when non-nil, wraps every submission's executor — a test
	// hook for gating and counting executions.
	WrapExec func(harness.Executor) harness.Executor
	// GridTTL, when positive, retires finished grids (and their
	// manifests) once they have been done for this long. Zero disables
	// eviction.
	GridTTL time.Duration
	// ClientWeights sets per-client fair-share weights on the queue
	// (unlisted clients get weight 1). Server-side policy, not taken from
	// submissions.
	ClientWeights map[string]int
	// ArtifactDir, when non-empty, attaches an on-disk compiled-trace
	// artifact store (trace.ArtifactStore) under the shared build cache,
	// so a restarted daemon serves a repeated grid with zero rebuilds and
	// separate processes pointed at the same directory share compiles.
	ArtifactDir string
	// BuildCacheBytes bounds the in-memory compiled-workload footprint;
	// least-recently-used artifacts are evicted past the budget (and stay
	// one disk load away when ArtifactDir is set). <= 0 means unbounded.
	BuildCacheBytes int64
}

// Server is the sweepd daemon state: an http.Handler plus the Run loop
// that drives the worker pool.
type Server struct {
	pool        *harness.Pool
	queue       *harness.Queue
	cache       *harness.Cache
	wrap        func(harness.Executor) harness.Executor
	build       *harness.BuildCache
	artifacts   *trace.ArtifactStore // nil when no artifact dir configured
	mux         *http.ServeMux
	manifestDir string        // "" when no cache: grids stay memory-only
	gridTTL     time.Duration // 0 = finished grids never expire

	// persistMu is held from a manifest snapshot to its write (in watch,
	// on to publishing the outcome); take it before mu.
	persistMu sync.Mutex

	mu       sync.Mutex
	grids    map[string]*grid
	flights  map[string]*flight // cache key -> in-flight task
	seq      int
	evicted  int // finished grids retired by the TTL janitor
	restored int // grids reloaded from manifests at startup
	draining bool
}

// flight is one in-flight simulation shared by every grid that contains
// its cache key.
type flight struct {
	task  *harness.Task
	grids map[*grid]struct{}
}

// New builds a server over the given pool. The pool's cache and trace
// directory become the shared stores; running the returned server
// requires calling Run (the HTTP handler only enqueues). When a result
// store is attached, grid manifests persist beside it and any manifests
// already on disk are restored — so a rebuilt server over the same
// store keeps serving its predecessor's grids.
func New(opts Options) (*Server, error) {
	if opts.Pool == nil {
		return nil, errors.New("server: Options.Pool is required")
	}
	s := &Server{
		pool:    opts.Pool,
		queue:   harness.NewQueue(opts.QueueCap),
		cache:   opts.Pool.Cache(),
		wrap:    opts.WrapExec,
		gridTTL: opts.GridTTL,
		build:   harness.NewBuildCache(),
		grids:   make(map[string]*grid),
		flights: make(map[string]*flight),
	}
	s.queue.SetWeights(opts.ClientWeights)
	if opts.ArtifactDir != "" {
		store, err := trace.OpenArtifactStore(opts.ArtifactDir)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.artifacts = store
		s.build.SetDisk(store)
	}
	if opts.BuildCacheBytes > 0 {
		s.build.SetLimit(opts.BuildCacheBytes)
	}
	if s.cache != nil {
		// Manifests live beside the result store. A subdirectory is safe:
		// the cache's own scan globs *.json non-recursively.
		dir := filepath.Join(s.cache.Dir(), "manifests")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("server: creating manifest dir: %w", err)
		}
		s.manifestDir = dir
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/grids", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/grids/{id}", s.handleGridStatus)
	mux.HandleFunc("GET /api/v1/grids/{id}/events", s.handleGridEvents)
	mux.HandleFunc("GET /api/v1/grids/{id}/results", s.handleGridResults)
	mux.HandleFunc("GET /api/v1/grids/{id}/figure", s.handleGridFigure)
	mux.HandleFunc("GET /api/v1/results", s.handleResult)
	mux.HandleFunc("GET /api/v1/traces", s.handleTrace)
	mux.HandleFunc("GET /api/v1/stores", s.handleStores)
	mux.HandleFunc("GET /api/v1/healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /api/v1/shutdown", s.handleShutdown)
	s.mux = mux
	s.restored = s.loadManifests()
	return s, nil
}

// Restored reports how many grids New reloaded from on-disk manifests.
func (s *Server) Restored() int { return s.restored }

// ServeHTTP dispatches to the API routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Run drives the worker pool from the queue until Shutdown has been
// called and the in-flight jobs have drained, or ctx is canceled (the
// hard path: in-flight simulations are interrupted and left uncached).
// When a grid TTL is configured the janitor runs alongside the workers.
func (s *Server) Run(ctx context.Context) error {
	if s.gridTTL > 0 {
		jctx, cancel := context.WithCancel(ctx)
		defer cancel()
		go s.janitor(jctx)
	}
	err := s.pool.Serve(ctx, s.queue)
	if err != nil && ctx.Err() != nil {
		return fmt.Errorf("server: interrupted: %w", err)
	}
	return err
}

// Shutdown begins a graceful drain: new submissions are refused (503),
// pending-but-unstarted jobs are aborted (they left no store entry, so
// a resubmission after restart runs them fresh), and in-flight jobs run
// to completion — their results land in the store as usual. It returns
// the number of pending jobs dropped. Safe to call more than once.
func (s *Server) Shutdown() int {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	dropped := s.queue.CloseNow()
	for _, t := range dropped {
		t.Abort("sweepd: server shutting down; job dropped before running (completed results remain in the store)")
	}
	return len(dropped)
}

// retryAfterSeconds estimates when queue capacity will free up: the mean
// fresh-run wall time, spread over the workers, times the backlog.
func (s *Server) retryAfterSeconds() int {
	t := s.pool.Reporter().Totals()
	mean := 5 * time.Second
	if fresh := t.Done + t.Failed; fresh > 0 {
		mean = t.WallSum / time.Duration(fresh)
	}
	backlog := s.queue.Len() + s.pool.Workers()
	est := int(mean.Seconds()+1) * backlog / s.pool.Workers()
	if est < 1 {
		est = 1
	}
	if est > 600 {
		est = 600
	}
	return est
}

// writeJSON writes v as an indented JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// handleResult serves one result-store entry by cache key — the full
// harness.Result including serialized stats, exactly the bytes a CLI
// sweep with the same -cachedir would resume from.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		writeError(w, http.StatusBadRequest, "missing ?key= (a job cache key, e.g. from a grid's events)")
		return
	}
	if s.cache == nil {
		writeError(w, http.StatusNotFound, "no result store attached")
		return
	}
	res, ok := s.cache.Get(key)
	if !ok {
		writeError(w, http.StatusNotFound, "no stored result for key %q", key)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleTrace serves one execution trace by job cache key from the
// content-addressed trace store. Traces exist only for jobs that ran
// fresh while tracing was on; the file is validated before serving so a
// partially written trace is never handed out.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		writeError(w, http.StatusBadRequest, "missing ?key=")
		return
	}
	dir := s.pool.TraceDir()
	if dir == "" {
		writeError(w, http.StatusNotFound, "trace store disabled (start sweepd with -trace-dir)")
		return
	}
	path := filepath.Join(dir, harness.KeyedTraceFile(key))
	data, err := os.ReadFile(path)
	if err != nil {
		writeError(w, http.StatusNotFound, "no trace for key %q (only fresh runs are traced)", key)
		return
	}
	if _, err := telemetry.Check(data); err != nil {
		writeError(w, http.StatusInternalServerError, "stored trace for %q failed validation: %v", key, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// storeStats is the /stores body: the shared stores' occupancy plus the
// pool's lifetime execution counters (Totals.Done is the number of
// fresh simulations — the exactly-once observable).
type storeStats struct {
	Results *harness.CacheStats `json:"results,omitempty"`
	Traces  *traceStoreStats    `json:"traces,omitempty"`
	// Builds keeps its original meaning — resident build-cache entries —
	// while BuildCache carries the lifetime counters (fresh builds, disk
	// loads, evictions, bytes) the cold-start story is judged by.
	Builds     int                 `json:"workload_builds"`
	BuildCache harness.BuildStats  `json:"builds"`
	Artifacts  *artifactStoreStats `json:"artifacts,omitempty"`
	Flights    int                 `json:"in_flight"`
	Grids      gridStoreStats      `json:"grids"`
	Queue      queueStats          `json:"queue"`
	Totals     harness.Totals      `json:"totals"`
}

type artifactStoreStats struct {
	Dir        string `json:"dir"`
	Files      int    `json:"files"`
	TotalBytes int64  `json:"total_bytes"`
}

type traceStoreStats struct {
	Files      int   `json:"files"`
	TotalBytes int64 `json:"total_bytes"`
}

// gridStoreStats reports the grid map's lifecycle: how many grids are
// live, how many the TTL janitor has retired, and the configured TTL.
type gridStoreStats struct {
	Active     int     `json:"active"`
	Restored   int     `json:"restored"`
	Evicted    int     `json:"evicted"`
	TTLSeconds float64 `json:"ttl_seconds,omitempty"`
}

type queueStats struct {
	Pending  int            `json:"pending"`
	Cap      int            `json:"cap"`
	Workers  int            `json:"workers"`
	ByClient map[string]int `json:"by_client,omitempty"`
}

func (s *Server) handleStores(w http.ResponseWriter, r *http.Request) {
	var st storeStats
	if s.cache != nil {
		cs, err := s.cache.Stats()
		if err != nil {
			writeError(w, http.StatusInternalServerError, "result store scan: %v", err)
			return
		}
		st.Results = &cs
	}
	if dir := s.pool.TraceDir(); dir != "" {
		files, _ := filepath.Glob(filepath.Join(dir, "*.trace.json"))
		ts := &traceStoreStats{Files: len(files)}
		for _, f := range files {
			if fi, err := os.Stat(f); err == nil {
				ts.TotalBytes += fi.Size()
			}
		}
		st.Traces = ts
	}
	st.Builds = s.build.Len()
	st.BuildCache = s.build.Stats()
	if s.artifacts != nil {
		files, bytes, err := s.artifacts.Stats()
		if err == nil {
			st.Artifacts = &artifactStoreStats{Dir: s.artifacts.Dir(), Files: files, TotalBytes: bytes}
		}
	}
	s.mu.Lock()
	st.Flights = len(s.flights)
	st.Grids = gridStoreStats{
		Active: len(s.grids), Restored: s.restored, Evicted: s.evicted,
		TTLSeconds: s.gridTTL.Seconds(),
	}
	s.mu.Unlock()
	st.Queue = queueStats{
		Pending: s.queue.Len(), Cap: s.queue.Cap(), Workers: s.pool.Workers(),
		ByClient: s.queue.PendingByClient(),
	}
	st.Totals = s.pool.Reporter().Totals()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	grids := len(s.grids)
	s.mu.Unlock()
	status := "ok"
	if draining {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  status,
		"grids":   grids,
		"pending": s.queue.Len(),
		"workers": s.pool.Workers(),
	})
}

// handleShutdown triggers the graceful drain. The HTTP listener is the
// caller's (cmd/sweepd watches Run return and then closes it), so this
// endpoint only transitions the state and reports what was dropped.
func (s *Server) handleShutdown(w http.ResponseWriter, r *http.Request) {
	dropped := s.Shutdown()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "draining",
		"dropped": dropped,
	})
}

// retryAfterHeader sets the 429 back-pressure headers.
func (s *Server) retryAfterHeader(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
}
