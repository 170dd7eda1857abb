package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"uvmsim/internal/config"
	"uvmsim/internal/exp"
	"uvmsim/internal/harness"
	"uvmsim/internal/metrics"
	"uvmsim/internal/server"
	"uvmsim/internal/telemetry"
)

// Workload geometry small enough that one simulation takes well under a
// second (the scale the harness tests sweep grids at).
const (
	tinyVertices = 1 << 16
	tinyDegree   = 6
)

// tinyBody builds a two-point submission body (BFS-TTC at ratio 0.5 and
// 1.0) at tiny scale.
func tinyBody() string {
	return `{"scale":"small","vertices":65536,"avg_degree":6,"runs":[
		{"workload":"BFS-TTC","ratio":0.5},
		{"workload":"BFS-TTC","ratio":1.0}]}`
}

// env is one running daemon under test.
type env struct {
	srv    *server.Server
	ts     *httptest.Server
	pool   *harness.Pool
	cache  *harness.Cache
	dir    string // the result-store directory (shared across restarts)
	runErr chan error
	stop   func() // idempotent: close the listener and cancel Run
}

// start brings up a server over a fresh cache, serving until the test
// ends. Extra configuration is applied to the options before New.
func start(t *testing.T, mutate func(*server.Options)) *env {
	t.Helper()
	return startDir(t, t.TempDir(), mutate)
}

// startDir is start over a caller-owned store directory, so restart
// tests can bring up a second daemon on the same store.
func startDir(t *testing.T, dir string, mutate func(*server.Options)) *env {
	t.Helper()
	cache, err := harness.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := server.Options{}
	e := &env{cache: cache, dir: dir, runErr: make(chan error, 1)}
	if mutate != nil {
		// mutate may install its own pool (different cache or tracing).
		mutate(&opts)
	}
	if opts.Pool == nil {
		opts.Pool = harness.New(harness.Options{Jobs: 2, Cache: cache, Reporter: harness.NewReporter(nil)})
	}
	e.pool = opts.Pool
	e.cache = opts.Pool.Cache()
	srv, err := server.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	e.srv = srv
	ctx, cancel := context.WithCancel(context.Background())
	go func() { e.runErr <- srv.Run(ctx) }()
	e.ts = httptest.NewServer(srv)
	var once sync.Once
	e.stop = func() {
		once.Do(func() {
			e.ts.Close()
			cancel()
		})
	}
	t.Cleanup(e.stop)
	return e
}

// submit posts a grid and decodes the accepted status.
func (e *env) submit(t *testing.T, body string) server.GridStatus {
	t.Helper()
	st, code := e.trySubmit(t, body)
	if code != http.StatusAccepted {
		t.Fatalf("submission returned %d", code)
	}
	return st
}

func (e *env) trySubmit(t *testing.T, body string) (server.GridStatus, int) {
	t.Helper()
	resp, err := http.Post(e.ts.URL+"/api/v1/grids", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.GridStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

// await polls the grid until done (the events stream is tested
// separately; status polling keeps the plumbing here independent).
func (e *env) await(t *testing.T, id string) server.GridStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := http.Get(e.ts.URL + "/api/v1/grids/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st server.GridStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Done {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("grid %s did not finish: %+v", id, st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// results fetches a finished grid's per-job results, keeping the raw
// summary bytes for identity comparisons.
type rawResults struct {
	ID      string `json:"id"`
	Results []struct {
		ID      string          `json:"id"`
		Key     string          `json:"key"`
		Status  string          `json:"status"`
		Err     string          `json:"error"`
		Summary json.RawMessage `json:"summary"`
	} `json:"results"`
}

func (e *env) results(t *testing.T, id string) rawResults {
	t.Helper()
	resp, err := http.Get(e.ts.URL + "/api/v1/grids/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("results returned %d: %s", resp.StatusCode, body)
	}
	var out rawResults
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// compact normalizes JSON whitespace so indented server output compares
// against json.Marshal output.
func compact(t *testing.T, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatalf("compacting %q: %v", raw, err)
	}
	return buf.Bytes()
}

// TestSubmitServesByteIdenticalSummaries is the cross-frontend identity
// acceptance: the summary sweepd serves for a grid point must be byte-
// identical to what a direct runner (the cmd/experiments path) computes
// for the same point.
func TestSubmitServesByteIdenticalSummaries(t *testing.T) {
	e := start(t, nil)
	st := e.submit(t, tinyBody())
	if st.Total != 2 {
		t.Fatalf("admitted %d jobs, want 2", st.Total)
	}
	fin := e.await(t, st.ID)
	if fin.Failed != 0 {
		t.Fatalf("grid failed: %+v", fin)
	}
	res := e.results(t, st.ID)

	// The reference path: a fresh inline runner over the same geometry.
	p, err := exp.ScaleParams("small", 42)
	if err != nil {
		t.Fatal(err)
	}
	p.Vertices = tinyVertices
	p.AvgDegree = tinyDegree
	ref := exp.NewRunner(p, exp.DefaultBase())
	for i, ratio := range []float64{0.5, 1.0} {
		stats, err := ref.Run("BFS-TTC", func(c *config.Config) { c.UVM.OversubscriptionRatio = ratio })
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(stats.Summary())
		if err != nil {
			t.Fatal(err)
		}
		got := compact(t, res.Results[i].Summary)
		if !bytes.Equal(got, want) {
			t.Errorf("point %d: served summary differs from direct runner\nserved: %s\ndirect: %s", i, got, want)
		}
	}
}

// gate wraps executors so a test can observe and stall executions.
type gate struct {
	mu      sync.Mutex
	counts  map[string]int
	release chan struct{} // nil = never block
}

func newGate(block bool) *gate {
	g := &gate{counts: map[string]int{}}
	if block {
		g.release = make(chan struct{})
	}
	return g
}

func (g *gate) wrap(exec harness.Executor) harness.Executor {
	return func(ctx context.Context, j harness.Job) (*metrics.Stats, error) {
		g.mu.Lock()
		g.counts[j.Key()]++
		g.mu.Unlock()
		if g.release != nil {
			select {
			case <-g.release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return exec(ctx, j)
	}
}

func (g *gate) executions() map[string]int {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]int, len(g.counts))
	for k, v := range g.counts {
		out[k] = v
	}
	return out
}

// TestCrossRequestSingleFlight submits the same grid from two clients
// while the first submission's jobs are still gated mid-execution: the
// second must coalesce onto the in-flight jobs — zero new executions —
// and both grids must serve identical summaries.
func TestCrossRequestSingleFlight(t *testing.T) {
	g := newGate(true)
	e := start(t, func(o *server.Options) { o.WrapExec = g.wrap })

	first := e.submit(t, tinyBody())
	// Both workers must be inside the gate before the second submission,
	// so the cache cannot answer it and coalescing is the only dedup.
	waitFor(t, func() bool { return len(g.executions()) == 2 })

	second := e.submit(t, tinyBody())
	if second.Coalesced != 2 || second.Stored != 0 {
		t.Fatalf("second submission: coalesced=%d stored=%d, want 2/0", second.Coalesced, second.Stored)
	}
	close(g.release)

	finA, finB := e.await(t, first.ID), e.await(t, second.ID)
	if finA.Failed+finB.Failed != 0 {
		t.Fatalf("failures: %+v %+v", finA, finB)
	}
	for key, n := range g.executions() {
		if n != 1 {
			t.Errorf("job %s executed %d times, want exactly once", key, n)
		}
	}
	resA, resB := e.results(t, first.ID), e.results(t, second.ID)
	for i := range resA.Results {
		a, b := compact(t, resA.Results[i].Summary), compact(t, resB.Results[i].Summary)
		if !bytes.Equal(a, b) {
			t.Errorf("point %d: the two clients saw different summaries:\n%s\n%s", i, a, b)
		}
		if resA.Results[i].Key != resB.Results[i].Key {
			t.Errorf("point %d: key mismatch %s vs %s", i, resA.Results[i].Key, resB.Results[i].Key)
		}
	}

	// A third submission now lands entirely on the result store.
	third := e.submit(t, tinyBody())
	if third.Stored != 2 || !third.Done {
		t.Errorf("post-completion submission: stored=%d done=%v, want 2/true", third.Stored, third.Done)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBackpressure fills the queue and asserts the next submission is
// rejected whole with 429 and a Retry-After estimate, leaving no
// partial state: after the gate opens, resubmitting the rejected grid
// succeeds and the earlier grids drain normally.
func TestBackpressure(t *testing.T) {
	g := newGate(true)
	e := start(t, func(o *server.Options) {
		o.WrapExec = g.wrap
		o.QueueCap = 2
		o.Pool = harness.New(harness.Options{Jobs: 1, Cache: mustCache(t), Reporter: harness.NewReporter(nil)})
	})
	e.cache = e.pool.Cache()

	first := e.submit(t, tinyBody()) // worker takes one job, one stays queued
	waitFor(t, func() bool { return len(g.executions()) == 1 })
	// Distinct grid (different seed): 2 more jobs against 1 free slot.
	overflow := `{"scale":"small","vertices":65536,"avg_degree":6,"seed":7,"runs":[
		{"workload":"BFS-TTC","ratio":0.5},{"workload":"BFS-TTC","ratio":1.0}]}`
	resp, err := http.Post(e.ts.URL+"/api/v1/grids", "application/json", strings.NewReader(overflow))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submission returned %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}

	close(g.release)
	e.await(t, first.ID)
	// No half-admitted leftovers: the rejected grid resubmits cleanly.
	st := e.submit(t, overflow)
	fin := e.await(t, st.ID)
	if fin.Failed != 0 {
		t.Fatalf("resubmitted grid failed: %+v", fin)
	}
}

func mustCache(t *testing.T) *harness.Cache {
	t.Helper()
	c, err := harness.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestShutdownDrains: shutdown mid-grid completes the in-flight job
// (its result lands in the store), aborts the pending one (no store
// entry, so a later run would redo it), refuses new submissions with
// 503, and lets Run return nil.
func TestShutdownDrains(t *testing.T) {
	g := newGate(true)
	e := start(t, func(o *server.Options) {
		o.WrapExec = g.wrap
		o.Pool = harness.New(harness.Options{Jobs: 1, Cache: mustCache(t), Reporter: harness.NewReporter(nil)})
	})
	e.cache = e.pool.Cache()

	st := e.submit(t, tinyBody())
	waitFor(t, func() bool { return len(g.executions()) == 1 })

	resp, err := http.Post(e.ts.URL+"/api/v1/shutdown", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var shut struct {
		Dropped int `json:"dropped"`
	}
	json.NewDecoder(resp.Body).Decode(&shut)
	resp.Body.Close()
	if shut.Dropped != 1 {
		t.Fatalf("shutdown dropped %d pending jobs, want 1", shut.Dropped)
	}

	if _, code := e.trySubmit(t, tinyBody()); code != http.StatusServiceUnavailable {
		t.Errorf("submission while draining returned %d, want 503", code)
	}

	close(g.release)
	fin := e.await(t, st.ID)
	if fin.Completed != 2 || fin.Failed != 1 {
		t.Fatalf("after drain: %+v, want 2 completed with 1 failed (the aborted pending job)", fin)
	}
	select {
	case err := <-e.runErr:
		if err != nil {
			t.Fatalf("Run returned %v after graceful drain", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after drain")
	}
	// Exactly the in-flight job's result is in the store.
	var stored, aborted int
	for _, js := range fin.Jobs {
		if _, ok := e.cache.Get(js.Key); ok {
			stored++
		} else {
			aborted++
			if js.Err == "" || !strings.Contains(js.Err, "shutting down") {
				t.Errorf("aborted job error = %q, want a shutdown reason", js.Err)
			}
		}
	}
	if stored != 1 || aborted != 1 {
		t.Errorf("store holds %d of the grid's jobs (%d aborted), want 1/1", stored, aborted)
	}
}

// TestEventStream reads the JSON-lines progress stream: replayed and
// live events must parse as harness.Events, carry per-grid counters,
// and end with the terminal grid record.
func TestEventStream(t *testing.T) {
	e := start(t, nil)
	st := e.submit(t, tinyBody())
	resp, err := http.Get(e.ts.URL + "/api/v1/grids/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	var events []harness.Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		ev, err := harness.ParseEvent(sc.Bytes())
		if err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 2 job + 1 grid: %+v", len(events), events)
	}
	for i, ev := range events[:2] {
		if ev.Type != "job" || ev.Completed != i+1 || ev.Submitted != 2 {
			t.Errorf("event %d = %+v, want job event %d/2", i, ev, i+1)
		}
		if ev.Key == "" {
			t.Errorf("event %d missing cache key", i)
		}
	}
	last := events[2]
	if last.Type != "grid" || last.ID != st.ID || last.Status != "done" {
		t.Errorf("terminal event = %+v, want grid/done for %s", last, st.ID)
	}
	checkManifestTerminal(t, e.dir, st.ID)
}

// TestTraceStoreHandoff runs a traced grid and fetches a trace by cache
// key from the content-addressed store, validating it the way any
// consumer would.
func TestTraceStoreHandoff(t *testing.T) {
	traceDir := t.TempDir()
	e := start(t, func(o *server.Options) {
		o.Pool = harness.New(harness.Options{
			Jobs: 2, Cache: mustCache(t), Reporter: harness.NewReporter(nil),
			TraceDir: traceDir, TraceKeyed: true,
		})
	})
	st := e.submit(t, tinyBody())
	fin := e.await(t, st.ID)
	if fin.Failed != 0 {
		t.Fatalf("grid failed: %+v", fin)
	}
	for _, js := range fin.Jobs {
		resp, err := http.Get(e.ts.URL + "/api/v1/traces?key=" + urlQueryEscape(js.Key))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trace for %s returned %d: %s", js.Key, resp.StatusCode, data)
		}
		if _, err := telemetry.Check(data); err != nil {
			t.Errorf("trace for %s fails validation: %v", js.Key, err)
		}
	}
	// Unknown keys miss cleanly.
	resp, err := http.Get(e.ts.URL + "/api/v1/traces?key=nope")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing trace returned %d, want 404", resp.StatusCode)
	}
}

// TestStoresAndResultEndpoint exercises /stores occupancy and fetching
// one result by key.
func TestStoresAndResultEndpoint(t *testing.T) {
	e := start(t, nil)
	st := e.submit(t, tinyBody())
	fin := e.await(t, st.ID)

	resp, err := http.Get(e.ts.URL + "/api/v1/results?key=" + urlQueryEscape(fin.Jobs[0].Key))
	if err != nil {
		t.Fatal(err)
	}
	var res harness.Result
	err = json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Key() != fin.Jobs[0].Key || res.Stats == nil {
		t.Errorf("served result key %q (stats %v), want %q with stats", res.Key(), res.Stats != nil, fin.Jobs[0].Key)
	}

	sresp, err := http.Get(e.ts.URL + "/api/v1/stores")
	if err != nil {
		t.Fatal(err)
	}
	var stores struct {
		Results *harness.CacheStats `json:"results"`
		Totals  harness.Totals      `json:"totals"`
	}
	err = json.NewDecoder(sresp.Body).Decode(&stores)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stores.Results == nil || stores.Results.Entries != 2 {
		t.Errorf("stores.results = %+v, want 2 entries", stores.Results)
	}
	if stores.Totals.Done != 2 {
		t.Errorf("totals.done = %d, want 2 fresh executions", stores.Totals.Done)
	}
}

// TestFigurePreset submits fig03 (one BFS-TTC run) as a preset and
// renders the figure table from the daemon.
func TestFigurePreset(t *testing.T) {
	e := start(t, nil)
	st := e.submit(t, `{"preset":"fig03","scale":"small","vertices":65536,"avg_degree":6}`)
	if st.Preset != "fig03" || st.Total != 1 {
		t.Fatalf("preset submission = %+v", st)
	}
	fin := e.await(t, st.ID)
	if fin.Failed != 0 {
		t.Fatalf("grid failed: %+v", fin)
	}
	resp, err := http.Get(e.ts.URL + "/api/v1/grids/" + st.ID + "/figure")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("figure returned %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "== fig03:") {
		t.Errorf("figure output missing title:\n%s", body)
	}
	// The CSV form of the same table.
	cresp, err := http.Get(e.ts.URL + "/api/v1/grids/" + st.ID + "/figure?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	cbody, _ := io.ReadAll(cresp.Body)
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK || !strings.Contains(string(cbody), ",") {
		t.Errorf("csv figure returned %d:\n%s", cresp.StatusCode, cbody)
	}
}

// TestBadSubmissions covers admission-time validation.
func TestBadSubmissions(t *testing.T) {
	e := start(t, nil)
	for _, tc := range []struct {
		name, body string
	}{
		{"empty", `{}`},
		{"unknown preset", `{"preset":"fig99"}`},
		{"unknown workload", `{"runs":[{"workload":"nope"}]}`},
		{"unknown policy", `{"runs":[{"workload":"BFS-TTC","policy":"wat"}]}`},
		{"unknown scale", `{"scale":"galactic","runs":[{"workload":"BFS-TTC"}]}`},
		{"both preset and runs", `{"preset":"fig03","runs":[{"workload":"BFS-TTC"}]}`},
		{"unknown field", `{"bogus":1}`},
	} {
		if _, code := e.trySubmit(t, tc.body); code != http.StatusBadRequest {
			t.Errorf("%s: returned %d, want 400", tc.name, code)
		}
	}
	resp, err := http.Get(e.ts.URL + "/api/v1/grids/g9999")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown grid returned %d, want 404", resp.StatusCode)
	}
}

func urlQueryEscape(s string) string {
	// Keys contain '|' which must be escaped in query strings.
	return strings.NewReplacer("|", "%7C", "+", "%2B").Replace(s)
}
