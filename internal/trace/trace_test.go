package trace

import (
	"testing"

	"uvmsim/internal/layout"
)

// testWorkload is a test workload given by the accesses of each warp:
// gens[i] returns kernel i's reference accesses, which never touch a
// Builder, and the kernel's Emit writes the same accesses through one, a
// whole access at a time, for Compile.
type testWorkload struct {
	*Workload
	gens []func(block, warp int) []Access
}

// add appends kernel k, whose warps perform the accesses gen returns.
func (w *testWorkload) add(k Kernel, gen func(block, warp int) []Access) {
	k.Emit = func(b *Builder, block, warp int) {
		for _, a := range gen(block, warp) {
			for _, addr := range a.Addrs {
				b.Addr(addr)
			}
			b.EndAccess(a.ComputeCycles, a.Store)
		}
	}
	w.Kernels = append(w.Kernels, k)
	w.gens = append(w.gens, gen)
}

// want returns the reference accesses of every warp at warpSize, in grid
// order.
func (w *testWorkload) want(warpSize int) []Access {
	var out []Access
	for i, k := range w.Kernels {
		for b := 0; b < k.Blocks; b++ {
			for wp := 0; wp < k.WarpsPerBlock(warpSize); wp++ {
				out = append(out, w.gens[i](b, wp)...)
			}
		}
	}
	return out
}

// sampleWorkload builds a small two-kernel workload with divergent lane
// counts and stores.
func sampleWorkload() *testWorkload {
	sp := layout.NewSpace(64 << 10)
	arr := sp.Alloc("data", 4, 1<<16)
	w := &testWorkload{Workload: &Workload{Name: "sample", Space: sp, Irregular: true}}
	gen := func(block, warp int) []Access {
		return []Access{
			{ComputeCycles: 3, Addrs: []uint64{arr.Addr(block * 100), arr.Addr(block*100 + 1)}},
			{ComputeCycles: 1},
			{ComputeCycles: 9, Addrs: []uint64{arr.Addr(warp)}, Store: true},
		}
	}
	w.add(Kernel{Name: "k0", Blocks: 3, ThreadsPerBlock: 64, RegsPerThread: 24}, gen)
	w.add(Kernel{Name: "k1", Blocks: 1, ThreadsPerBlock: 64, RegsPerThread: 24}, gen)
	return w
}

// replay drains a cursor over every warp of c, in grid order.
func replay(c *Compiled) []Access {
	var out []Access
	for i := range c.Kernels() {
		k := &c.Kernels()[i]
		for b := 0; b < k.Blocks; b++ {
			for wp := 0; wp < k.WarpsPerBlock(); wp++ {
				cur := k.Stream(b, wp)
				for a, ok := cur.Next(); ok; a, ok = cur.Next() {
					out = append(out, a)
				}
			}
		}
	}
	return out
}

// mustCompile compiles w at warpSize or fails the test.
func mustCompile(t *testing.T, w *Workload, warpSize int) *Compiled {
	t.Helper()
	c, err := Compile(w, warpSize)
	if err != nil {
		t.Fatal(err)
	}
	return c
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
	w := &testWorkload{Workload: &Workload{Name: "pages"}}
	w.add(Kernel{Blocks: 2, ThreadsPerBlock: 64}, func(block, warp int) []Access {
		base := uint64(block) * 128 << 10 // 2 pages per block
		return []Access{{Addrs: []uint64{base, base + 64<<10}}}
	})
	c := mustCompile(t, w.Workload, 32)
	pages := PagesTouched(&c.Kernels()[0], 1, 64<<10)
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
	c := mustCompile(t, &Workload{Name: "x", Space: sp}, 32)
	if c.Space() != sp {
		t.Fatal("compiled trace must share the workload's Space")
	}
	if c.FootprintPages() != 2 {
		t.Fatalf("FootprintPages = %d", c.FootprintPages())
	}
	if c.FootprintBytes() != 2*64<<10 {
		t.Fatalf("FootprintBytes = %d", c.FootprintBytes())
	}
}
