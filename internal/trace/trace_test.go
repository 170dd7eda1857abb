package trace

import (
	"testing"

	"uvmsim/internal/layout"
)

// sampleWorkload builds a small two-kernel workload with divergent lane
// counts and stores.
func sampleWorkload() *Workload {
	sp := layout.NewSpace(64 << 10)
	arr := sp.Alloc("data", 4, 1<<16)
	mk := func(name string, blocks int) Kernel {
		return withAccesses(Kernel{
			Name:            name,
			Blocks:          blocks,
			ThreadsPerBlock: 64,
			RegsPerThread:   24,
		}, func(block, warp int) []Access {
			return []Access{
				{ComputeCycles: 3, Addrs: []uint64{arr.Addr(block * 100), arr.Addr(block*100 + 1)}},
				{ComputeCycles: 1},
				{ComputeCycles: 9, Addrs: []uint64{arr.Addr(warp)}, Store: true},
			}
		})
	}
	return &Workload{
		Name:      "sample",
		Space:     sp,
		Kernels:   []Kernel{mk("k0", 3), mk("k1", 1)},
		Irregular: true,
	}
}

// withAccesses gives test kernel k the warp streams gen returns, twice
// over: NewWarpStream replays them as SliceStreams, the reference that
// never touches a Builder, and Emit writes them through a Builder, one
// whole access at a time, for Compile.
func withAccesses(k Kernel, gen func(block, warp int) []Access) Kernel {
	k.NewWarpStream = func(block, warp int) WarpStream {
		return NewSliceStream(gen(block, warp))
	}
	k.Emit = func(b *Builder, block, warp int) {
		for _, a := range gen(block, warp) {
			for _, addr := range a.Addrs {
				b.Addr(addr)
			}
			b.EndAccess(a.ComputeCycles, a.Store)
		}
	}
	return k
}

func drainAll(w *Workload) []Access { return drainAllWarp(w, 32) }

func drainAllWarp(w *Workload, warpSize int) []Access {
	var out []Access
	for _, k := range w.Kernels {
		for b := 0; b < k.Blocks; b++ {
			for wp := 0; wp < k.WarpsPerBlock(warpSize); wp++ {
				out = DrainWarp(k, b, wp, out)
			}
		}
	}
	return out
}

// accessesEqual compares two access sequences lane by lane.
func accessesEqual(t *testing.T, label string, a, b []Access) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: access counts %d != %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i].ComputeCycles != b[i].ComputeCycles || a[i].Store != b[i].Store {
			t.Fatalf("%s: access %d meta mismatch: %+v vs %+v", label, i, a[i], b[i])
		}
		if len(a[i].Addrs) != len(b[i].Addrs) {
			t.Fatalf("%s: access %d lanes %d != %d", label, i, len(a[i].Addrs), len(b[i].Addrs))
		}
		for j := range a[i].Addrs {
			if a[i].Addrs[j] != b[i].Addrs[j] {
				t.Fatalf("%s: access %d lane %d: %#x != %#x", label, i, j, a[i].Addrs[j], b[i].Addrs[j])
			}
		}
	}
}

func TestSliceStream(t *testing.T) {
	accs := []Access{
		{ComputeCycles: 1, Addrs: []uint64{10}},
		{ComputeCycles: 2},
	}
	s := NewSliceStream(accs)
	a, ok := s.Next()
	if !ok || a.ComputeCycles != 1 || !a.IsMemory() {
		t.Fatalf("first access = %+v (%v)", a, ok)
	}
	a, ok = s.Next()
	if !ok || a.IsMemory() {
		t.Fatalf("second access = %+v (%v)", a, ok)
	}
	if _, ok := s.Next(); ok {
		t.Fatal("stream did not end")
	}
	if _, ok := s.Next(); ok {
		t.Fatal("exhausted stream yielded again")
	}
}

func TestWarpsPerBlock(t *testing.T) {
	cases := []struct {
		threads, warpSize, want int
	}{
		{1024, 32, 32},
		{256, 32, 8},
		{33, 32, 2},
		{1, 32, 1},
	}
	for _, c := range cases {
		k := Kernel{ThreadsPerBlock: c.threads}
		if got := k.WarpsPerBlock(c.warpSize); got != c.want {
			t.Errorf("WarpsPerBlock(%d/%d) = %d, want %d", c.threads, c.warpSize, got, c.want)
		}
	}
}

func TestPagesTouched(t *testing.T) {
	k := Kernel{
		Blocks:          2,
		ThreadsPerBlock: 64,
		NewWarpStream: func(block, warp int) WarpStream {
			base := uint64(block) * 128 << 10 // 2 pages per block
			return NewSliceStream([]Access{
				{Addrs: []uint64{base, base + 64<<10}},
			})
		},
	}
	pages := PagesTouched(k, 1, 32, 64<<10)
	if len(pages) != 2 {
		t.Fatalf("block 1 touched %d pages, want 2", len(pages))
	}
	if _, ok := pages[2]; !ok {
		t.Fatal("page 2 missing for block 1")
	}
	if _, ok := pages[3]; !ok {
		t.Fatal("page 3 missing for block 1")
	}
}

func TestWorkloadFootprint(t *testing.T) {
	sp := layout.NewSpace(64 << 10)
	sp.Alloc("a", 4, 32768) // 2 pages
	w := &Workload{Name: "x", Space: sp}
	if w.FootprintPages() != 2 {
		t.Fatalf("FootprintPages = %d", w.FootprintPages())
	}
	if w.FootprintBytes() != 2*64<<10 {
		t.Fatalf("FootprintBytes = %d", w.FootprintBytes())
	}
}
