package harness

import (
	"os"
	"path/filepath"
	"testing"

	"uvmsim/internal/metrics"
)

func TestCacheMissThenHit(t *testing.T) {
	c, err := OpenCache(filepath.Join(t.TempDir(), "nested", "cache"))
	if err != nil {
		t.Fatal(err)
	}
	key := "BFS-TTC|abc123"
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on empty cache")
	}
	res := &Result{
		ID: "x", Workload: "BFS-TTC", Hash: "abc123",
		Stats:  &metrics.Stats{Cycles: 777},
		WallNS: 1234,
	}
	if err := c.Put(key, res); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("miss after Put")
	}
	if got.Stats.Cycles != 777 || got.WallNS != 1234 || got.Workload != "BFS-TTC" {
		t.Fatalf("round trip mutated result: %+v", got)
	}
}

func TestCacheRejectsCorruptEntry(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := "PR|def"
	if err := c.Put(key, &Result{Workload: "PR", Hash: "def"}); err != nil {
		t.Fatal(err)
	}
	// Truncate the entry, simulating a partial write by a crashed sweep
	// on a filesystem without atomic rename semantics.
	path := c.path(key)
	if err := os.WriteFile(path, []byte(`{"workload":"PR",`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("corrupt entry served as a hit")
	}
}

func TestCacheRejectsKeyMismatch(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// An entry written under one key must not satisfy another even if
	// the file paths were ever to collide.
	if err := c.Put("A|h", &Result{Workload: "A", Hash: "h"}); err != nil {
		t.Fatal(err)
	}
	stolen := c.path("B|h")
	orig := c.path("A|h")
	data, err := os.ReadFile(orig)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stolen, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("B|h"); ok {
		t.Fatal("foreign entry served as a hit")
	}
}

func TestOpenCacheEmptyDir(t *testing.T) {
	if _, err := OpenCache(""); err == nil {
		t.Fatal("empty cache dir accepted")
	}
}
