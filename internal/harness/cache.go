package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Cache is an on-disk JSON result store keyed by Job.Key() — one file per
// (workload, config-hash) pair. It is what makes sweeps resumable: a
// rerun of an interrupted sweep finds the finished jobs on disk and skips
// recomputing them.
//
// Writes are atomic (temp file + rename), so a sweep killed mid-write
// never leaves a truncated entry; a rerun either sees the complete result
// or recomputes the job. Entries that fail to decode are treated as
// misses for the same reason.
type Cache struct {
	dir string
}

// OpenCache opens (creating if needed) a cache rooted at dir.
func OpenCache(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("harness: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("harness: creating cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// path maps a job key to its entry file. Keys embed workload names and
// hex hashes; hashing the whole key keeps file names short, filesystem
// safe, and collision free.
func (c *Cache) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(c.dir, hex.EncodeToString(sum[:])[:32]+".json")
}

// Get returns the cached result for key, or (nil, false) on a miss.
// Undecodable or mismatched entries count as misses.
func (c *Cache) Get(key string) (*Result, bool) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, false
	}
	if res.Key() != key { // hash-prefix collision or foreign file
		return nil, false
	}
	return &res, true
}

// Put stores a result under key, atomically.
func (c *Cache) Put(key string, res *Result) error {
	data, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("harness: encoding cache entry: %w", err)
	}
	dst := c.path(key)
	tmp, err := os.CreateTemp(c.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("harness: writing cache entry: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: writing cache entry: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: writing cache entry: %w", err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: writing cache entry: %w", err)
	}
	return nil
}

// Len counts the entries currently on disk.
func (c *Cache) Len() int {
	matches, err := filepath.Glob(filepath.Join(c.dir, "*.json"))
	if err != nil {
		return 0
	}
	return len(matches)
}
