package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"uvmsim/internal/harness"
	"uvmsim/internal/server"
)

// cacheAt opens a second cache handle over the same store directory (the
// content-addressed files make concurrent handles safe), for tests whose
// pool must share the env's store.
func cacheAt(t *testing.T, dir string) *harness.Cache {
	t.Helper()
	c, err := harness.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// get fetches a URL and returns status code plus body bytes.
func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// readEvents consumes a grid's event stream to termination (bounded by
// the deadline) and parses every line.
func readEvents(t *testing.T, url string, deadline time.Duration) []harness.Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
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
		t.Fatalf("event stream did not terminate cleanly (grid hung?): %v", err)
	}
	return events
}

// checkManifestTerminal requires a grid's on-disk manifest to record a
// terminal status for every point and a finish time. The daemon writes
// a manifest before it publishes the outcomes it records, so this must
// hold as soon as a client has seen the grid finish, by status or by its
// terminal event.
func checkManifestTerminal(t *testing.T, dir, id string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "manifests", id+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Finished time.Time `json:"finished"`
		Jobs     []struct {
			Status string `json:"status"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.Finished.IsZero() || len(m.Jobs) == 0 {
		t.Fatalf("manifest %s after the grid finished: finished %v, %d jobs", id, m.Finished, len(m.Jobs))
	}
	for i, j := range m.Jobs {
		switch j.Status {
		case "stored", "done", "cached", "failed":
		default:
			t.Fatalf("manifest %s after the grid finished: job %d is %q", id, i, j.Status)
		}
	}
}

// TestDuplicatePointSubmissionTerminates is the regression for the
// admission hang: a submission listing the same grid point twice must
// coalesce to one job and reach the terminal grid event. Before the
// dedup, the duplicate created two gridJobs over one byKey entry and
// one shadowed flight, so completed could never reach len(jobs) and
// /events streamed forever.
func TestDuplicatePointSubmissionTerminates(t *testing.T) {
	e := start(t, nil)
	st := e.submit(t, `{"scale":"small","vertices":65536,"avg_degree":6,"runs":[
		{"workload":"BFS-TTC","ratio":0.5},
		{"workload":"BFS-TTC","ratio":0.5}]}`)
	if st.Total != 1 {
		t.Fatalf("duplicate-point submission admitted %d jobs, want 1 (coalesced)", st.Total)
	}
	events := readEvents(t, e.ts.URL+"/api/v1/grids/"+st.ID+"/events", time.Minute)
	if len(events) == 0 {
		t.Fatal("no events")
	}
	last := events[len(events)-1]
	if last.Type != "grid" || last.Status != "done" {
		t.Fatalf("terminal event = %+v, want grid/done", last)
	}
	if fin := e.await(t, st.ID); fin.Failed != 0 || !fin.Done {
		t.Fatalf("grid did not finish cleanly: %+v", fin)
	}
}

// TestRestartServesPersistedGrids: grids completed before a restart are
// restored from their manifests and answer status, results, and figure
// requests byte-for-byte identically to the pre-restart daemon.
func TestRestartServesPersistedGrids(t *testing.T) {
	dir := t.TempDir()
	e1 := startDir(t, dir, nil)
	fig := e1.submit(t, `{"preset":"fig03","scale":"small","vertices":65536,"avg_degree":6}`)
	runs := e1.submit(t, tinyBody())
	e1.await(t, fig.ID)
	e1.await(t, runs.ID)
	checkManifestTerminal(t, dir, fig.ID)
	checkManifestTerminal(t, dir, runs.ID)

	urls := []string{
		"/api/v1/grids/" + fig.ID,
		"/api/v1/grids/" + fig.ID + "/results",
		"/api/v1/grids/" + fig.ID + "/figure",
		"/api/v1/grids/" + fig.ID + "/figure?format=csv",
		"/api/v1/grids/" + runs.ID,
		"/api/v1/grids/" + runs.ID + "/results",
	}
	before := make(map[string][]byte, len(urls))
	for _, u := range urls {
		code, body := get(t, e1.ts.URL+u)
		if code != http.StatusOK {
			t.Fatalf("pre-restart GET %s returned %d: %s", u, code, body)
		}
		before[u] = body
	}
	e1.stop()

	e2 := startDir(t, dir, nil)
	if n := e2.srv.Restored(); n != 2 {
		t.Fatalf("restarted server restored %d grids, want 2", n)
	}
	for _, u := range urls {
		code, body := get(t, e2.ts.URL+u)
		if code != http.StatusOK {
			t.Fatalf("post-restart GET %s returned %d: %s", u, code, body)
		}
		if !bytes.Equal(before[u], body) {
			t.Errorf("GET %s differs across restart:\npre:  %s\npost: %s", u, before[u], body)
		}
	}
	// The restored grids' event streams terminate with the grid record.
	events := readEvents(t, e2.ts.URL+"/api/v1/grids/"+runs.ID+"/events", time.Minute)
	if last := events[len(events)-1]; last.Type != "grid" || last.Status != "done" {
		t.Fatalf("restored grid terminal event = %+v", last)
	}
}

// TestRestartResumesUnfinishedGrid: a daemon killed mid-grid (hard
// cancel: in-flight jobs interrupted and left uncached) restarts on the
// same store, re-enqueues the unfinished remainder, and completes the
// grid under its original ID.
func TestRestartResumesUnfinishedGrid(t *testing.T) {
	dir := t.TempDir()
	g := newGate(true)
	e1 := startDir(t, dir, func(o *server.Options) {
		o.WrapExec = g.wrap
		o.Pool = harness.New(harness.Options{Jobs: 1, Cache: cacheAt(t, dir), Reporter: harness.NewReporter(nil)})
	})
	st := e1.submit(t, tinyBody())
	// The admission manifest is on disk before the jobs run; hold the one
	// in-flight job at the gate and kill the daemon around it.
	waitFor(t, func() bool { return len(g.executions()) == 1 })
	e1.stop()
	select {
	case <-e1.runErr:
	case <-time.After(30 * time.Second):
		t.Fatal("first daemon did not stop")
	}

	e2 := startDir(t, dir, nil)
	if n := e2.srv.Restored(); n != 1 {
		t.Fatalf("restarted server restored %d grids, want 1", n)
	}
	fin := e2.await(t, st.ID)
	if fin.Failed != 0 || fin.Total != 2 {
		t.Fatalf("resumed grid finished as %+v, want 2 clean completions", fin)
	}
	res := e2.results(t, st.ID)
	for i, jr := range res.Results {
		if len(jr.Summary) == 0 {
			t.Errorf("resumed point %d has no summary", i)
		}
	}
}

// TestGridTTLEviction: with a TTL configured, finished grids (and their
// manifests) are retired by the janitor and /stores counts them.
func TestGridTTLEviction(t *testing.T) {
	e := start(t, func(o *server.Options) { o.GridTTL = 250 * time.Millisecond })
	st := e.submit(t, tinyBody())
	e.await(t, st.ID)

	waitFor(t, func() bool {
		code, _ := get(t, e.ts.URL+"/api/v1/grids/"+st.ID)
		return code == http.StatusNotFound
	})
	waitFor(t, func() bool {
		files, err := filepath.Glob(filepath.Join(e.dir, "manifests", "*.json"))
		return err == nil && len(files) == 0
	})
	code, body := get(t, e.ts.URL+"/api/v1/stores")
	if code != http.StatusOK {
		t.Fatalf("/stores returned %d", code)
	}
	var stores struct {
		Grids struct {
			Active     int     `json:"active"`
			Evicted    int     `json:"evicted"`
			TTLSeconds float64 `json:"ttl_seconds"`
		} `json:"grids"`
	}
	if err := json.Unmarshal(body, &stores); err != nil {
		t.Fatal(err)
	}
	if stores.Grids.Active != 0 || stores.Grids.Evicted != 1 {
		t.Errorf("grids stats = %+v, want 0 active / 1 evicted", stores.Grids)
	}
	if stores.Grids.TTLSeconds != 0.25 {
		t.Errorf("ttl_seconds = %v, want 0.25", stores.Grids.TTLSeconds)
	}
	// The results themselves outlive the grid: an evicted grid's points
	// resubmit entirely from the store.
	re := e.submit(t, tinyBody())
	if re.Stored != 2 || !re.Done {
		t.Errorf("post-eviction resubmission: stored=%d done=%v, want 2/true", re.Stored, re.Done)
	}
}

// TestShutdownAbortTerminatesEventStream: a grid whose pending task is
// dropped by the shutdown drain must reach a terminal failed state and
// its /events stream must end with the grid record — not hang.
func TestShutdownAbortTerminatesEventStream(t *testing.T) {
	g := newGate(true)
	e := start(t, func(o *server.Options) {
		o.WrapExec = g.wrap
		o.Pool = harness.New(harness.Options{Jobs: 1, Cache: mustCache(t), Reporter: harness.NewReporter(nil)})
	})
	st := e.submit(t, tinyBody())
	waitFor(t, func() bool { return len(g.executions()) == 1 })

	done := make(chan []harness.Event, 1)
	go func() { done <- readEvents(t, e.ts.URL+"/api/v1/grids/"+st.ID+"/events", time.Minute) }()

	resp, err := http.Post(e.ts.URL+"/api/v1/shutdown", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	close(g.release) // the in-flight job finishes; the dropped one aborted

	var events []harness.Event
	select {
	case events = <-done:
	case <-time.After(time.Minute):
		t.Fatal("event stream did not terminate after shutdown abort")
	}
	last := events[len(events)-1]
	if last.Type != "grid" || last.Status != "failed" {
		t.Fatalf("terminal event = %+v, want grid/failed", last)
	}
	fin := e.await(t, st.ID)
	if fin.Completed != 2 || fin.Failed != 1 {
		t.Fatalf("grid after shutdown = %+v, want 2 completed / 1 failed", fin)
	}
}

// TestFigureEvictedResultsReturn410: a pruned store entry must turn the
// figure endpoint into a clean 410, never a silent in-handler
// re-simulation.
func TestFigureEvictedResultsReturn410(t *testing.T) {
	e := start(t, nil)
	st := e.submit(t, `{"preset":"fig03","scale":"small","vertices":65536,"avg_degree":6}`)
	fin := e.await(t, st.ID)
	if fin.Failed != 0 {
		t.Fatalf("grid failed: %+v", fin)
	}
	if code, _ := get(t, e.ts.URL+"/api/v1/grids/"+st.ID+"/figure"); code != http.StatusOK {
		t.Fatalf("figure before pruning returned %d", code)
	}
	if _, err := e.cache.PruneOlderThan(0); err != nil {
		t.Fatal(err)
	}
	code, body := get(t, e.ts.URL+"/api/v1/grids/"+st.ID+"/figure")
	if code != http.StatusGone {
		t.Fatalf("figure after pruning returned %d: %s", code, body)
	}
	if !strings.Contains(string(body), "evicted") {
		t.Errorf("410 body should say the results were evicted: %s", body)
	}
}

// TestClientIdentityPlumbing: the submission's client (body field or
// X-Sweep-Client header) lands on the grid status and on the queue's
// per-client pending counts in /stores.
func TestClientIdentityPlumbing(t *testing.T) {
	g := newGate(true)
	e := start(t, func(o *server.Options) {
		o.WrapExec = g.wrap
		o.Pool = harness.New(harness.Options{Jobs: 1, Cache: mustCache(t), Reporter: harness.NewReporter(nil)})
	})
	defer close(g.release)

	alice := e.submit(t, `{"scale":"small","vertices":65536,"avg_degree":6,"client":"alice","runs":[
		{"workload":"BFS-TTC","ratio":0.5},{"workload":"BFS-TTC","ratio":1.0}]}`)
	if alice.Client != "alice" {
		t.Fatalf("body client = %q, want alice", alice.Client)
	}
	waitFor(t, func() bool { return len(g.executions()) == 1 })

	req, err := http.NewRequest(http.MethodPost, e.ts.URL+"/api/v1/grids",
		strings.NewReader(`{"scale":"small","vertices":65536,"avg_degree":6,"seed":7,"runs":[
			{"workload":"BFS-TTC","ratio":0.5},{"workload":"BFS-TTC","ratio":1.0}]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Sweep-Client", "bob")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var bob server.GridStatus
	err = json.NewDecoder(resp.Body).Decode(&bob)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if bob.Client != "bob" {
		t.Fatalf("header client = %q, want bob", bob.Client)
	}

	code, body := get(t, e.ts.URL+"/api/v1/stores")
	if code != http.StatusOK {
		t.Fatalf("/stores returned %d", code)
	}
	var stores struct {
		Queue struct {
			ByClient map[string]int `json:"by_client"`
		} `json:"queue"`
	}
	if err := json.Unmarshal(body, &stores); err != nil {
		t.Fatal(err)
	}
	// alice: one job at the gate (popped), one pending; bob: two pending.
	if stores.Queue.ByClient["alice"] != 1 || stores.Queue.ByClient["bob"] != 2 {
		t.Errorf("queue by_client = %v, want alice:1 bob:2", stores.Queue.ByClient)
	}
}
