package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
		w, err := readTrace(p, 32)
		if err != nil {
			t.Fatal(err)
		}
		if w.Name != "BFS-TTC" || len(w.Kernels) != len(c.Kernels()) {
			t.Fatalf("%s: read back %q with %d kernels, want BFS-TTC with %d", p, w.Name, len(w.Kernels), len(c.Kernels()))
		}
	}
}

// TestReadTraceRejectsOtherWarpSize: a trace captured at warp size 16
// must not replay under a warp-32 GPU. Without the check it runs to
// completion over half of each block's warps.
func TestReadTraceRejectsOtherWarpSize(t *testing.T) {
	c, key, err := compileWorkload("", "BFS-TTC", tinyParams(), 16)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "w16.uvmcmp")
	if err := writeTrace(path, c, key); err != nil {
		t.Fatal(err)
	}
	_, err = readTrace(path, 32)
	if err == nil {
		t.Fatal("warp-16 trace accepted by a warp-32 GPU")
	}
	if msg := err.Error(); !strings.Contains(msg, "warp size 16") || !strings.Contains(msg, "warp size 32") {
		t.Fatalf("error %q does not name both warp sizes", msg)
	}
	if _, err := readTrace(path, 16); err != nil {
		t.Fatalf("warp-16 trace under a warp-16 GPU: %v", err)
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
	if _, err := readTrace(path, 32); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("foreign file: got %v, want an error naming %s", err, path)
	}
	missing := filepath.Join(dir, "missing.uvmcmp")
	if _, err := readTrace(missing, 32); err == nil {
		t.Fatal("missing file accepted")
	}
}
