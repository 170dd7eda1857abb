package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/workload"
)

// tinyParams is a BFS-TTC geometry that builds and compiles in
// milliseconds.
func tinyParams() workload.Params {
	p := workload.Default()
	p.Vertices = 1 << 10
	return p
}

// TestTraceFileIsStoreArtifact: -traceout writes the bytes the artifact
// store holds for the same point, and -tracein replays that file and the
// store entry alike.
func TestTraceFileIsStoreArtifact(t *testing.T) {
	store := t.TempDir()
	c, key, err := compileWorkload(store, "BFS-TTC", tinyParams(), 32)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.uvmcmp")
	if err := writeTrace(path, c, key); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(store, "*.uvmcmp"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("store entries %v (%v), want exactly one", entries, err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	entry, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, entry) {
		t.Fatalf("trace file (%d bytes) differs from the store entry (%d bytes)", len(file), len(entry))
	}
	for _, p := range []string{path, entries[0]} {
		w, err := readTrace(p)
		if err != nil {
			t.Fatal(err)
		}
		if w.Name != "BFS-TTC" || len(w.Kernels()) != len(c.Kernels()) {
			t.Fatalf("%s: read back %q with %d kernels, want BFS-TTC with %d", p, w.Name, len(w.Kernels()), len(c.Kernels()))
		}
	}
}

// TestReadTraceRejectsOtherFormats: a file that is not a UVMCMP1
// artifact, or no file at all, is an error naming the path.
func TestReadTraceRejectsOtherFormats(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "old.trc")
	if err := os.WriteFile(path, []byte("NOTATRACE: some other format, long enough to pass the size check"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readTrace(path); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("foreign file: got %v, want an error naming %s", err, path)
	}
	missing := filepath.Join(dir, "missing.uvmcmp")
	if _, err := readTrace(missing); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestCappedRunReportsLowerBound: a run stopped at the cycle cap prints
// the cap error to stderr, still writes its -trace file, reports its
// partial statistics marked as a lower bound, and exits 3. An uncapped
// run's JSON carries no cap fields.
func TestCappedRunReportsLowerBound(t *testing.T) {
	w, _, err := compileWorkload("", "BFS-TTC", tinyParams(), 32)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	cfg.MaxCycles = 5_000
	tracePath := filepath.Join(t.TempDir(), "capped.trace.json")
	var stdout, stderr bytes.Buffer
	if code := simulate(&stdout, &stderr, cfg, w, tracePath, true, false); code != exitCapped {
		t.Fatalf("capped -json run exited %d, want %d; stderr:\n%s", code, exitCapped, stderr.String())
	}
	if !strings.Contains(stderr.String(), "cycle limit exceeded") {
		t.Errorf("stderr lacks the cap error:\n%s", stderr.String())
	}
	var res struct {
		Capped   bool   `json:"capped"`
		CapError string `json:"cap_error"`
		Summary  struct {
			Cycles uint64 `json:"cycles"`
			Instrs uint64 `json:"warp_instructions"`
		} `json:"summary"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		t.Fatalf("capped run printed no JSON report: %v\n%s", err, stdout.String())
	}
	if !res.Capped || !strings.Contains(res.CapError, "cycle limit exceeded") ||
		res.Summary.Cycles != cfg.MaxCycles || res.Summary.Instrs == 0 {
		t.Errorf("capped report: capped %v, cap_error %q, %d cycles, %d instructions; want true, the cap error, %d cycles and some instructions",
			res.Capped, res.CapError, res.Summary.Cycles, res.Summary.Instrs, cfg.MaxCycles)
	}
	if fi, err := os.Stat(tracePath); err != nil || fi.Size() == 0 {
		t.Errorf("capped run wrote no execution trace: %v", err)
	}

	stdout.Reset()
	stderr.Reset()
	if code := simulate(&stdout, &stderr, cfg, w, "", false, false); code != exitCapped {
		t.Fatalf("capped text run exited %d, want %d", code, exitCapped)
	}
	if !strings.Contains(stdout.String(), "capped              at 5000 cycles: every figure below is a lower bound\n") {
		t.Errorf("capped text report lacks the lower-bound line:\n%s", stdout.String())
	}

	cfg.MaxCycles = 0
	stdout.Reset()
	stderr.Reset()
	if code := simulate(&stdout, &stderr, cfg, w, "", true, false); code != 0 {
		t.Fatalf("uncapped run exited %d; stderr:\n%s", code, stderr.String())
	}
	if strings.Contains(stdout.String(), "capped") || strings.Contains(stdout.String(), "cap_error") {
		t.Errorf("uncapped JSON carries cap fields:\n%.400s", stdout.String())
	}
}
