package gpu

import "testing"

func BenchmarkCacheAccess(b *testing.B) {
	c := NewCache(2<<20, 16, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i) % 100_000)
	}
}

func BenchmarkClusterResidentKernel(b *testing.B) {
	// End-to-end GPU throughput with all pages resident: the hot path of
	// the simulator outside of paging. The launch is delivered to the
	// shard engines, so the whole system runs, not the hub alone.
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := newRig(nil)
		c := r.build(nil)
		k := simpleKernel(16, 256, 16, 20, 128)
		mapAll(r, k)
		b.StartTimer()
		c.Launch(k, func() {})
		r.sys.Run()
	}
}
