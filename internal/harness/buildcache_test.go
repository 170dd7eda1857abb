package harness

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestBuildCacheSingleFlight hammers one key from many goroutines: the
// build must run exactly once and every caller must see the same value.
func TestBuildCacheSingleFlight(t *testing.T) {
	c := NewBuildCache()
	var builds atomic.Int32
	artifact := &struct{ n int }{42}

	const callers = 32
	got := make([]any, callers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			v, err := c.Get("k", func() (any, error) {
				builds.Add(1)
				return artifact, nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			got[i] = v
		}(i)
	}
	close(start)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times, want 1", n)
	}
	for i, v := range got {
		if v != artifact {
			t.Fatalf("caller %d got %v, want the shared artifact", i, v)
		}
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d keys, want 1", c.Len())
	}
}

// TestBuildCacheDistinctKeys builds independently per key.
func TestBuildCacheDistinctKeys(t *testing.T) {
	c := NewBuildCache()
	a, _ := c.Get("a", func() (any, error) { return "A", nil })
	b, _ := c.Get("b", func() (any, error) { return "B", nil })
	if a != "A" || b != "B" {
		t.Fatalf("got %v/%v", a, b)
	}
}

// TestBuildCacheMemoizesErrors pins that a failed build is not retried.
func TestBuildCacheMemoizesErrors(t *testing.T) {
	c := NewBuildCache()
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 3; i++ {
		_, err := c.Get("k", func() (any, error) {
			calls++
			return nil, boom
		})
		if err != boom {
			t.Fatalf("iteration %d: err = %v, want boom", i, err)
		}
	}
	if calls != 1 {
		t.Fatalf("failing build ran %d times, want 1", calls)
	}
}

// sizedArtifact implements the ArtifactBytes accounting hook.
type sizedArtifact struct{ bytes int64 }

func (s *sizedArtifact) ArtifactBytes() int64 { return s.bytes }

// fakeDisk is an in-memory DiskTier.
type fakeDisk struct {
	mu    sync.Mutex
	m     map[string]any
	loads int
	saves int
}

func newFakeDisk() *fakeDisk { return &fakeDisk{m: make(map[string]any)} }

func (d *fakeDisk) Load(key string) (any, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	v, ok := d.m[key]
	if ok {
		d.loads++
	}
	return v, ok
}

func (d *fakeDisk) Save(key string, v any) (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.m[key] = v
	d.saves++
	return true, nil
}

// TestBuildCacheDiskTier pins the memory-miss → disk-load → build+persist
// protocol: a second cache over the same tier — a later process sharing
// the artifact directory — serves every key with zero fresh builds.
func TestBuildCacheDiskTier(t *testing.T) {
	disk := newFakeDisk()
	c := NewBuildCache()
	c.SetDisk(disk)
	builds := 0
	build := func() (any, error) { builds++; return &sizedArtifact{10}, nil }

	if _, err := c.Get("k", build); err != nil || builds != 1 {
		t.Fatalf("cold get: builds=%d err=%v", builds, err)
	}
	if disk.saves != 1 {
		t.Fatalf("fresh build not persisted (saves=%d)", disk.saves)
	}
	if _, err := c.Get("k", build); err != nil || builds != 1 {
		t.Fatalf("warm get rebuilt (builds=%d)", builds)
	}
	st := c.Stats()
	if st.Builds != 1 || st.MemHits != 1 || st.DiskLoads != 0 || st.DiskSaves != 1 {
		t.Fatalf("stats after warm run: %+v", st)
	}

	// "Restart": a fresh cache over the same tier.
	c2 := NewBuildCache()
	c2.SetDisk(disk)
	if _, err := c2.Get("k", func() (any, error) {
		t.Fatal("restarted cache rebuilt a persisted artifact")
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	st2 := c2.Stats()
	if st2.Builds != 0 || st2.DiskLoads != 1 {
		t.Fatalf("restarted cache stats: %+v", st2)
	}
}

// TestBuildCacheEviction pins LRU byte-budget eviction: inserting past
// the limit evicts the least-recently-used entry, recency is refreshed by
// Get, and the resident bytes never exceed the budget (single-entry
// overshoot aside).
func TestBuildCacheEviction(t *testing.T) {
	c := NewBuildCache()
	c.SetLimit(250)
	mk := func(key string) {
		if _, err := c.Get(key, func() (any, error) { return &sizedArtifact{100}, nil }); err != nil {
			t.Fatal(err)
		}
	}
	mk("a")
	mk("b")
	// Touch a so b becomes the LRU victim.
	c.Get("a", func() (any, error) { t.Fatal("a evicted early"); return nil, nil })
	mk("c") // 300 bytes > 250: evict b
	st := c.Stats()
	if st.Evictions != 1 || st.Bytes != 200 || st.Entries != 2 {
		t.Fatalf("after eviction: %+v", st)
	}
	rebuilt := false
	c.Get("b", func() (any, error) { rebuilt = true; return &sizedArtifact{100}, nil })
	if !rebuilt {
		t.Fatal("victim was still resident")
	}
	// Readmitting b (300 bytes again) evicts the next LRU victim — a —
	// keeping the newer b and c resident under the budget.
	c.Get("c", func() (any, error) { t.Fatal("fresh entry evicted"); return nil, nil })
	if st := c.Stats(); st.Evictions != 2 || st.Bytes > 250 {
		t.Fatalf("after readmission: %+v", st)
	}
}

// TestBuildCacheOversizedEntry keeps the newest entry even when it alone
// exceeds the budget: one huge workload must still serve, not thrash.
func TestBuildCacheOversizedEntry(t *testing.T) {
	c := NewBuildCache()
	c.SetLimit(10)
	v, err := c.Get("huge", func() (any, error) { return &sizedArtifact{1000}, nil })
	if err != nil || v.(*sizedArtifact).bytes != 1000 {
		t.Fatalf("oversized build: %v, %v", v, err)
	}
	c.Get("huge", func() (any, error) { t.Fatal("oversized sole entry evicted"); return nil, nil })
	if st := c.Stats(); st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("oversized stats: %+v", st)
	}
}
