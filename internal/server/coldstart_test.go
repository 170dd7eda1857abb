package server_test

import (
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"uvmsim/internal/harness"
	"uvmsim/internal/server"
)

// storesBody is the slice of /api/v1/stores this test cares about.
type storesBody struct {
	Builds    harness.BuildStats `json:"builds"`
	Artifacts *struct {
		Files      int   `json:"files"`
		TotalBytes int64 `json:"total_bytes"`
	} `json:"artifacts"`
}

func (e *env) buildStats(t *testing.T) storesBody {
	t.Helper()
	resp, err := http.Get(e.ts.URL + "/api/v1/stores")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body storesBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body
}

// TestColdStartZeroRebuilds is the restart story the artifact store
// exists for: a daemon that compiled its workloads, died, and came back
// over the same directories serves fresh simulations of those workloads
// with zero BuildCache builds — every compile is a disk load. The second
// grid uses a different ratio so its results are not in the result cache
// (the jobs really run); only the compiled workload is reused.
func TestColdStartZeroRebuilds(t *testing.T) {
	dir := t.TempDir()
	withArtifacts := func(o *server.Options) {
		o.ArtifactDir = filepath.Join(dir, "artifacts")
	}

	e1 := startDir(t, dir, withArtifacts)
	done := e1.await(t, e1.submit(t, tinyBody()).ID)
	if done.Failed > 0 {
		t.Fatalf("first grid failed: %+v", done)
	}
	s1 := e1.buildStats(t)
	if s1.Builds.Builds == 0 {
		t.Fatalf("first daemon reported no fresh builds: %+v", s1.Builds)
	}
	if s1.Builds.DiskSaves == 0 || s1.Artifacts == nil || s1.Artifacts.Files == 0 {
		t.Fatalf("compiles were not persisted: %+v / %+v", s1.Builds, s1.Artifacts)
	}
	e1.stop()

	e2 := startDir(t, dir, withArtifacts)
	body := `{"scale":"small","vertices":65536,"avg_degree":6,"runs":[
		{"workload":"BFS-TTC","ratio":0.75}]}`
	done2 := e2.await(t, e2.submit(t, body).ID)
	if done2.Failed > 0 {
		t.Fatalf("post-restart grid failed: %+v", done2)
	}
	if done2.Completed <= done2.Stored {
		t.Fatalf("post-restart grid ran nothing fresh (all result-cache hits): %+v", done2)
	}
	s2 := e2.buildStats(t)
	if s2.Builds.Builds != 0 {
		t.Fatalf("restarted daemon rebuilt %d workloads; want 0 (all from the artifact store): %+v", s2.Builds.Builds, s2.Builds)
	}
	if s2.Builds.DiskLoads == 0 {
		t.Fatalf("restarted daemon never touched the artifact store: %+v", s2.Builds)
	}

	// The Prometheus view exposes the same counters.
	resp, err := http.Get(e2.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, want := range []string{"sweepd_builds_total 0", "sweepd_build_disk_loads_total"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
