package trace

import (
	"bytes"
	"math/rand"
	"testing"

	"uvmsim/internal/layout"
)

// randomWorkload builds a deterministic pseudo-random workload: divergent
// lane counts (including zero-lane pure-compute instructions), stores,
// empty streams, and multi-kernel grids — the shapes that stress the
// flattening offsets.
func randomWorkload(seed int64) *testWorkload {
	rng := rand.New(rand.NewSource(seed))
	sp := layout.NewSpace(64 << 10)
	arr := sp.Alloc("data", 4, 1<<16)
	nKernels := 1 + rng.Intn(3)
	w := &testWorkload{Workload: &Workload{Name: "random", Space: sp, Irregular: true}}
	for ki := 0; ki < nKernels; ki++ {
		blocks := 1 + rng.Intn(4)
		tpb := 32 * (1 + rng.Intn(4))
		// Pre-generate every stream so the kernel is pure.
		warps := tpb / 32
		streams := make([][]Access, blocks*warps)
		for i := range streams {
			n := rng.Intn(6)
			accs := make([]Access, 0, n)
			for j := 0; j < n; j++ {
				lanes := rng.Intn(33) // 0..32, zero = pure compute
				var addrs []uint64
				for l := 0; l < lanes; l++ {
					addrs = append(addrs, arr.Addr(rng.Intn(1<<16)))
				}
				accs = append(accs, Access{
					ComputeCycles: uint64(rng.Intn(50)),
					Addrs:         addrs,
					Store:         rng.Intn(4) == 0,
				})
			}
			streams[i] = accs
		}
		w.add(Kernel{
			Name:            "k",
			Blocks:          blocks,
			ThreadsPerBlock: tpb,
			RegsPerThread:   24,
		}, func(block, warp int) []Access {
			return streams[block*warps+warp]
		})
	}
	return w
}

// TestCompileMatchesLiveAndCodec is the property test: for randomized
// workloads, compile(w) through the Builder and its UVMCMP1 round trip
// (the bytes of a trace file or artifact-store entry) must both replay
// exactly the reference accesses the generators return, warp for warp.
func TestCompileMatchesLiveAndCodec(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		w := randomWorkload(seed)
		want := w.want(32)

		c := mustCompile(t, w.Workload, 32)
		accessesEqual(t, "compiled", want, replay(c))

		var buf bytes.Buffer
		if err := WriteCompiledArtifact(&buf, c, ArtifactKey(w.Name, "h", uint64(seed), 32)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		dec, err := ReadCompiledArtifact(buf.Bytes(), "")
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		accessesEqual(t, "artifact", want, replay(dec))
	}
}

func TestCompiledMetadata(t *testing.T) {
	w := sampleWorkload()
	c := mustCompile(t, w.Workload, 32)
	if c.Name != w.Name || c.Irregular != w.Irregular {
		t.Fatalf("metadata mismatch: %q/%v", c.Name, c.Irregular)
	}
	if c.Space() != w.Space {
		t.Fatal("compiled trace must share the original Space")
	}
	if len(c.Kernels()) != len(w.Kernels) {
		t.Fatalf("kernels %d != %d", len(c.Kernels()), len(w.Kernels))
	}
	for i, k := range c.Kernels() {
		orig := w.Kernels[i]
		if k.Name != orig.Name || k.Blocks != orig.Blocks ||
			k.ThreadsPerBlock != orig.ThreadsPerBlock || k.RegsPerThread != orig.RegsPerThread {
			t.Fatalf("kernel %d metadata mismatch", i)
		}
	}
	if c.Accesses() == 0 || c.AddrWords() == 0 {
		t.Fatal("empty compiled arrays for a non-empty workload")
	}
}

func TestCursorPeekAhead(t *testing.T) {
	w := sampleWorkload()
	c := mustCompile(t, w.Workload, 32)
	st := c.Kernels()[0].Stream(0, 0)
	want := w.gens[0](0, 0)
	for {
		// Peek the whole remaining stream before every consume step.
		for i := 0; ; i++ {
			pa, ok := st.PeekAhead(i)
			if ok != (i < len(want)) {
				t.Fatalf("peek %d ok = %v with %d accesses left", i, ok, len(want))
			}
			if !ok {
				break
			}
			accessesEqual(t, "peek", want[i:i+1], []Access{pa})
		}
		if _, ok := st.PeekAhead(-1); ok {
			t.Fatal("negative peek succeeded")
		}
		a, ok := st.Next()
		if ok != (len(want) > 0) {
			t.Fatalf("next ok = %v with %d accesses left", ok, len(want))
		}
		if !ok {
			break
		}
		accessesEqual(t, "next", want[:1], []Access{a})
		want = want[1:]
	}
}

// TestCursorReplayAllocations pins the zero-alloc replay contract: a
// cursor is a value, so a warp's full replay allocates nothing.
func TestCursorReplayAllocations(t *testing.T) {
	c := mustCompile(t, sampleWorkload().Workload, 32)
	k := &c.Kernels()[0]
	allocs := testing.AllocsPerRun(200, func() {
		st := k.Stream(0, 1)
		for {
			acc, ok := st.Next()
			if !ok {
				break
			}
			_ = acc
			if _, ok := st.PeekAhead(1); ok {
				// exercise the peek path too
			}
		}
	})
	if allocs > 0 {
		t.Fatalf("replay allocated %.1f objects per warp; want 0", allocs)
	}
}

// TestCursorAddrsAliasSafety checks the full-slice-expression guard: an
// append to a returned Access.Addrs must copy, not clobber the next
// access's lanes in the shared pool.
func TestCursorAddrsAliasSafety(t *testing.T) {
	w := sampleWorkload()
	c := mustCompile(t, w.Workload, 32)
	st := c.Kernels()[0].Stream(0, 0)
	first, ok := st.Next()
	if !ok || len(first.Addrs) == 0 {
		t.Fatal("expected a memory access first")
	}
	_ = append(first.Addrs, 0xdeadbeef) // must not write into the pool
	// Replay again and compare against the reference accesses.
	accessesEqual(t, "after append", w.want(32), replay(c))
}

func TestCompiledStreamOutsideGridPanics(t *testing.T) {
	c := mustCompile(t, sampleWorkload().Workload, 32)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-grid stream did not panic")
		}
	}()
	// sampleWorkload kernels have 2 warps per 64-thread block at warp
	// size 32; asking for warp 2 means the consumer is using a different
	// warp size than the compile — exactly the mismatch to surface loudly.
	c.Kernels()[0].Stream(0, 2)
}

func TestCompileRequiresEmit(t *testing.T) {
	w := sampleWorkload()
	w.Kernels[1].Emit = nil
	if _, err := Compile(w.Workload, 32); err == nil {
		t.Fatal("kernel without Emit compiled")
	}
}

func TestCompileRejectsBadWarpSize(t *testing.T) {
	if _, err := Compile(sampleWorkload().Workload, 0); err == nil {
		t.Fatal("warp size 0 accepted")
	}
}
