package harness

import (
	"container/list"
	"sync"
)

// BuildCache is an in-process, single-flight cache for expensive build
// artifacts shared by the jobs of a sweep — compiled workload traces,
// principally. It complements the on-disk result Cache: results are
// small, serializable, and persist across processes; build artifacts are
// large and worth computing exactly once per process no matter how many
// parallel workers need them.
//
// Get coalesces concurrent callers of the same key onto one build:
// the first caller runs build, everyone else blocks until it finishes,
// and every caller receives the same value (or the same error — failures
// are memoized too, so a broken build is not retried in a tight sweep
// loop). Keys must capture everything that influences the artifact — use
// trace.ArtifactKey, which makes the codec version and warp size
// structural components.
//
// Two optional layers turn the process-local cache into a bounded,
// persistent one:
//
//   - SetDisk attaches a disk tier (in practice a trace.ArtifactStore).
//     A memory miss consults the tier before building, and a fresh build
//     is persisted through it, so a later process sharing the directory
//     (a rerun sweep, another runner) loads its workloads with zero
//     rebuilds.
//   - SetLimit attaches a byte budget. Completed entries are accounted by
//     their value's ArtifactBytes method (values without one count as 0)
//     and evicted least-recently-used when the budget is exceeded, so a
//     large sweep's compiled-workload footprint stays bounded; evicted
//     artifacts remain one disk load away.
type BuildCache struct {
	mu      sync.Mutex
	entries map[string]*buildEntry
	disk    DiskTier
	// lru holds completed entries only, most-recent at the front; in-flight
	// builds are unaccounted until they finish.
	lru   *list.List
	limit int64
	bytes int64
	stats BuildStats
}

// DiskTier is a persistent layer under a BuildCache, satisfied
// structurally by trace.ArtifactStore. Load returns (value, true) on a
// hit and treats every failure — missing, stale, corrupt — as a plain
// miss. Save reports whether the value was persisted; values with no
// on-disk representation return (false, nil).
type DiskTier interface {
	Load(key string) (any, bool)
	Save(key string, v any) (bool, error)
}

// BuildStats are a BuildCache's lifetime counters.
type BuildStats struct {
	// Builds counts fresh build() invocations — the expensive path. A
	// runner started over a warm artifact store loads a repeated grid's
	// workloads with Builds == 0.
	Builds int64
	// MemHits counts Gets answered from memory, including callers
	// coalesced onto an in-flight build.
	MemHits int64
	// DiskLoads counts memory misses answered by the disk tier.
	DiskLoads int64
	// DiskSaves counts fresh builds persisted through the disk tier.
	DiskSaves int64
	// Evictions counts completed entries dropped by the byte budget.
	Evictions int64
	// Entries and Bytes describe the current resident set; LimitBytes is
	// the configured budget (0 = unbounded).
	Entries    int
	Bytes      int64
	LimitBytes int64
}

type buildEntry struct {
	key   string
	ready chan struct{}
	val   any
	err   error
	size  int64
	elem  *list.Element // non-nil once completed and accounted
}

// NewBuildCache returns an empty cache with no disk tier and no byte
// budget.
func NewBuildCache() *BuildCache {
	return &BuildCache{entries: make(map[string]*buildEntry), lru: list.New()}
}

// SetDisk attaches (or, with nil, detaches) the persistent tier. Not
// safe to call concurrently with Get; wire it up before the pool starts.
func (c *BuildCache) SetDisk(d DiskTier) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.disk = d
}

// SetLimit sets the byte budget (0 disables eviction) and evicts
// immediately if the resident set already exceeds it.
func (c *BuildCache) SetLimit(bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.limit = bytes
	c.evictLocked()
}

// artifactSizer is how cached values report their resident footprint;
// *trace.Compiled implements it. Values that don't are accounted as 0
// bytes (live-form workload views are cheap closures over params).
type artifactSizer interface{ ArtifactBytes() int64 }

func valueSize(v any) int64 {
	if s, ok := v.(artifactSizer); ok && s != nil {
		if n := s.ArtifactBytes(); n > 0 {
			return n
		}
	}
	return 0
}

// Get returns the cached artifact for key, consulting memory, then the
// disk tier, then running build (exactly once per key, regardless of
// concurrency) to produce — and persist — it.
func (c *BuildCache) Get(key string, build func() (any, error)) (any, error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		c.stats.MemHits++
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		<-e.ready
		return e.val, e.err
	}
	e = &buildEntry{key: key, ready: make(chan struct{})}
	c.entries[key] = e
	disk := c.disk
	c.mu.Unlock()

	fromDisk := false
	if disk != nil {
		if v, hit := disk.Load(key); hit {
			e.val, fromDisk = v, true
		}
	}
	if !fromDisk {
		e.val, e.err = build()
	}
	close(e.ready)

	var saveErr error
	persisted := false
	if !fromDisk && e.err == nil && disk != nil {
		// Best-effort: a full disk must not fail the build itself, but the
		// caller can observe save failures through Stats staying flat.
		persisted, saveErr = disk.Save(key, e.val)
		_ = saveErr
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if fromDisk {
		c.stats.DiskLoads++
	} else {
		c.stats.Builds++
	}
	if persisted {
		c.stats.DiskSaves++
	}
	if e.err == nil {
		e.size = valueSize(e.val)
	}
	c.bytes += e.size
	e.elem = c.lru.PushFront(e)
	c.evictLocked()
	return e.val, e.err
}

// evictLocked drops least-recently-used completed entries until the
// resident set fits the budget. The most recent entry always survives,
// so a single artifact larger than the whole budget still serves (and is
// simply dropped when the next one lands).
func (c *BuildCache) evictLocked() {
	if c.limit <= 0 {
		return
	}
	for c.bytes > c.limit && c.lru.Len() > 1 {
		e := c.lru.Remove(c.lru.Back()).(*buildEntry)
		delete(c.entries, e.key)
		c.bytes -= e.size
		c.stats.Evictions++
	}
}

// Stats returns a snapshot of the cache's counters and resident set.
func (c *BuildCache) Stats() BuildStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	s.Bytes = c.bytes
	s.LimitBytes = c.limit
	return s
}

// Len returns the number of cached keys (completed or in flight).
func (c *BuildCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
