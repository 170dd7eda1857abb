package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uvmsim/internal/harness"
	"uvmsim/internal/server"
)

// startDaemon brings up an in-process sweepd over a fresh store and
// returns its base URL.
func startDaemon(t *testing.T) string {
	t.Helper()
	cache, err := harness.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pool := harness.New(harness.Options{Jobs: 2, Cache: cache, Reporter: harness.NewReporter(nil)})
	srv, err := server.New(server.Options{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go srv.Run(ctx)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		cancel()
	})
	return ts.URL
}

// ctl runs one sweepctl invocation, returning exit code and stdout.
func runCtl(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestSweepctlRoundTrip drives the full CLI surface against a live
// daemon: submit -wait, status, results, figure, stores, and the error
// paths.
func TestSweepctlRoundTrip(t *testing.T) {
	addr := startDaemon(t)

	// submit -preset -wait: prints the accepted status, then follows the
	// event stream to the terminal record.
	code, out, errOut := runCtl(t, "-addr", addr, "-client", "tester",
		"submit", "-preset", "fig03", "-scale", "small", "-vertices", "65536", "-avg-degree", "6", "-wait")
	if code != 0 {
		t.Fatalf("submit -wait exited %d: %s", code, errOut)
	}
	var st server.GridStatus
	dec := json.NewDecoder(strings.NewReader(out))
	if err := dec.Decode(&st); err != nil {
		t.Fatalf("submit output is not a grid status: %v\n%s", err, out)
	}
	if st.ID == "" || st.Client != "tester" {
		t.Fatalf("accepted status = %+v, want an ID and client tester", st)
	}
	if !strings.Contains(out, `"type":"grid"`) {
		t.Errorf("-wait output missing the terminal grid event:\n%s", out)
	}

	// status: the grid is done with no failures.
	code, out, _ = runCtl(t, "-addr", addr, "status", st.ID)
	if code != 0 {
		t.Fatalf("status exited %d", code)
	}
	var fin server.GridStatus
	if err := json.Unmarshal([]byte(out), &fin); err != nil {
		t.Fatal(err)
	}
	if !fin.Done || fin.Failed != 0 {
		t.Fatalf("grid status = %+v, want done with no failures", fin)
	}

	// results: every point carries a summary.
	code, out, _ = runCtl(t, "-addr", addr, "results", st.ID)
	if code != 0 {
		t.Fatalf("results exited %d", code)
	}
	if !strings.Contains(out, `"summary"`) {
		t.Errorf("results output missing summaries:\n%s", out)
	}

	// figure text and CSV forms.
	code, out, _ = runCtl(t, "-addr", addr, "figure", st.ID)
	if code != 0 || !strings.Contains(out, "== fig03:") {
		t.Errorf("figure exited %d:\n%s", code, out)
	}
	code, out, _ = runCtl(t, "-addr", addr, "figure", st.ID, "-csv")
	if code != 0 || !strings.Contains(out, ",") {
		t.Errorf("figure -csv exited %d:\n%s", code, out)
	}

	// stores reports the client's identity-keyed queue and grid counters.
	code, out, _ = runCtl(t, "-addr", addr, "stores")
	if code != 0 || !strings.Contains(out, `"grids"`) {
		t.Errorf("stores exited %d:\n%s", code, out)
	}

	// Error paths: unknown grid is exit 1 with the daemon's message;
	// unknown command is exit 2.
	code, _, errOut = runCtl(t, "-addr", addr, "status", "g9999")
	if code != 1 || !strings.Contains(errOut, "g9999") {
		t.Errorf("unknown grid: exit %d, stderr %q", code, errOut)
	}
	if code, _, _ = runCtl(t, "-addr", addr, "frobnicate"); code != 2 {
		t.Errorf("unknown command exited %d, want 2", code)
	}
}

// TestSweepctlSubmitRuns submits explicit grid points from a -runs file
// and follows them; the events command then replays the same stream.
func TestSweepctlSubmitRuns(t *testing.T) {
	addr := startDaemon(t)
	runsFile := filepath.Join(t.TempDir(), "points.json")
	points := `[{"workload":"BFS-TTC","ratio":0.5},{"workload":"BFS-TTC","ratio":1.0}]`
	if err := os.WriteFile(runsFile, []byte(points), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runCtl(t, "-addr", addr, "submit",
		"-runs", runsFile, "-scale", "small", "-vertices", "65536", "-avg-degree", "6", "-wait")
	if code != 0 {
		t.Fatalf("submit -runs exited %d: %s", code, errOut)
	}
	var st server.GridStatus
	if err := json.NewDecoder(strings.NewReader(out)).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Total != 2 {
		t.Fatalf("submitted %d points, want 2", st.Total)
	}
	code, out, _ = runCtl(t, "-addr", addr, "events", st.ID)
	if code != 0 {
		t.Fatalf("events exited %d", code)
	}
	if !strings.Contains(out, `"type":"grid"`) {
		t.Errorf("events output missing terminal record:\n%s", out)
	}

	// shutdown drains the daemon; later submissions are refused (exit 1).
	if code, _, _ = runCtl(t, "-addr", addr, "shutdown"); code != 0 {
		t.Fatalf("shutdown exited %d", code)
	}
	code, _, errOut = runCtl(t, "-addr", addr, "submit", "-preset", "fig03", "-scale", "small")
	if code != 1 || !strings.Contains(errOut, "draining") {
		t.Errorf("submit while draining: exit %d, stderr %q", code, errOut)
	}
}
