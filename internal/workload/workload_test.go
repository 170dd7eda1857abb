package workload

import (
	"strings"
	"sync"
	"testing"

	"uvmsim/internal/trace"
)

// smallParams keeps construction fast in tests.
func smallParams() Params {
	p := Default()
	p.Vertices = 2048
	p.AvgDegree = 6
	p.RegularElems = 1 << 13
	return p
}

func TestBuildAllWorkloads(t *testing.T) {
	p := smallParams()
	for _, name := range All() {
		w, err := Build(name, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if w.Name != name {
			t.Errorf("%s: workload named %q", name, w.Name)
		}
		if len(w.Kernels) == 0 {
			t.Errorf("%s: no kernels", name)
		}
		if w.FootprintPages() == 0 {
			t.Errorf("%s: zero footprint", name)
		}
		for _, k := range w.Kernels {
			if k.Blocks <= 0 || k.ThreadsPerBlock <= 0 {
				t.Errorf("%s/%s: bad grid %dx%d", name, k.Name, k.Blocks, k.ThreadsPerBlock)
			}
		}
	}
}

func TestUnknownWorkloadRejected(t *testing.T) {
	if _, err := Build("NOPE", smallParams()); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestBadParamsRejected(t *testing.T) {
	p := smallParams()
	p.ThreadsPerBlock = 100 // not a warp multiple
	if _, err := Build("PR", p); err == nil {
		t.Fatal("bad ThreadsPerBlock accepted")
	}
	p = smallParams()
	p.Vertices = 0
	if _, err := Build("PR", p); err == nil {
		t.Fatal("zero vertices accepted")
	}
}

// addressesInSpace drains every stream of every kernel and checks all
// addresses fall inside the workload's managed space.
func addressesInSpace(t *testing.T, w *trace.Workload) (totalAccesses int) {
	t.Helper()
	for _, k := range w.Kernels {
		for blk := 0; blk < k.Blocks; blk++ {
			for wp := 0; wp < k.WarpsPerBlock(32); wp++ {
				st := k.Stream(blk, wp)
				for {
					acc, ok := st.Next()
					if !ok {
						break
					}
					totalAccesses++
					for _, a := range acc.Addrs {
						if !w.Space.Contains(a) {
							t.Fatalf("%s/%s block %d warp %d: address %#x outside managed space",
								w.Name, k.Name, blk, wp, a)
						}
					}
					if len(acc.Addrs) > 32 {
						t.Fatalf("%s/%s: access with %d lanes", w.Name, k.Name, len(acc.Addrs))
					}
				}
			}
		}
	}
	return totalAccesses
}

func TestAllAddressesInsideSpace(t *testing.T) {
	p := smallParams()
	p.Vertices = 512
	p.RegularElems = 1 << 11
	for _, name := range All() {
		w, err := Build(name, p)
		if err != nil {
			t.Fatal(err)
		}
		if n := addressesInSpace(t, w); n == 0 {
			t.Errorf("%s: no accesses generated", name)
		}
	}
}

func TestStreamsArePure(t *testing.T) {
	// Stream must return identical streams each call (the simulator and
	// the working-set analyzer both create them).
	p := smallParams()
	p.Vertices = 512
	w, err := Build("BFS-TTC", p)
	if err != nil {
		t.Fatal(err)
	}
	k := w.Kernels[0]
	if i := firstDifference(k.Stream(0, 0), k.Stream(0, 0)); i >= 0 {
		t.Fatalf("two streams of one warp differ at access %d", i)
	}
}

// TestConcurrentEmitMatchesCompiled holds every catalog generator to
// Kernel.Emit's contract: a warp may be emitted from concurrent
// goroutines and must give the same accesses each time. Each workload is
// compiled once; then goroutines emit every warp of the first blocks of
// every kernel live (Kernel.Stream) and compare it with the compiled
// cursor for that warp. Under -race this catches a generator that keeps
// mutable state in a kernel closure instead of in the Builder.
func TestConcurrentEmitMatchesCompiled(t *testing.T) {
	const goroutines, blocks, warpSize = 4, 2, 32
	p := fidelityParams()
	for _, name := range All() {
		w, err := Build(name, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c, err := trace.Compile(w, warpSize)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		compiled := c.Kernels()
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ki, k := range w.Kernels {
					ck := &compiled[ki]
					for b := 0; b < min(blocks, k.Blocks); b++ {
						for wp := 0; wp < ck.WarpsPerBlock(); wp++ {
							if i := firstDifference(k.Stream(b, wp), ck.Stream(b, wp)); i >= 0 {
								t.Errorf("%s kernel %d (%s) block %d warp %d: live emission differs from the compiled trace at access %d",
									name, ki, k.Name, b, wp, i)
								return
							}
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}

// firstDifference returns the index of the first access at which the two
// streams differ, or -1 when they replay identically.
func firstDifference(a, b trace.WarpStream) int {
	for i := 0; ; i++ {
		x, okA := a.Next()
		y, okB := b.Next()
		if okA != okB {
			return i
		}
		if !okA {
			return -1
		}
		if x.ComputeCycles != y.ComputeCycles || x.Store != y.Store || len(x.Addrs) != len(y.Addrs) {
			return i
		}
		for j := range x.Addrs {
			if x.Addrs[j] != y.Addrs[j] {
				return i
			}
		}
	}
}

func TestIrregularSharesPagesAcrossBlocks(t *testing.T) {
	// The Figure 1 premise: irregular workloads share most pages across
	// blocks; regular workloads keep block working sets disjoint.
	p := smallParams()
	p.Vertices = 4096
	w, err := Build("BFS-TTC", p)
	if err != nil {
		t.Fatal(err)
	}
	// Pick the busiest kernel (level with most work).
	k := w.Kernels[1]
	if k.Blocks < 2 {
		t.Skip("kernel has a single block")
	}
	a := trace.PagesTouched(k, 0, 32, p.PageBytes)
	b := trace.PagesTouched(k, 1, 32, p.PageBytes)
	shared := 0
	for pg := range a {
		if _, ok := b[pg]; ok {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("irregular workload blocks share no pages")
	}
}

func TestRegularBlocksMostlyDisjoint(t *testing.T) {
	p := smallParams()
	for _, name := range Regular {
		w, err := Build(name, p)
		if err != nil {
			t.Fatal(err)
		}
		k := w.Kernels[0]
		a := trace.PagesTouched(k, 0, 32, p.PageBytes)
		b := trace.PagesTouched(k, 10, 32, p.PageBytes)
		shared := 0
		for pg := range a {
			if _, ok := b[pg]; ok {
				shared++
			}
		}
		if shared > len(a)/4 {
			t.Errorf("%s: blocks 0 and 10 share %d of %d pages; regular tiles should be mostly disjoint",
				name, shared, len(a))
		}
	}
}

func TestBFSVariantsDifferInTraffic(t *testing.T) {
	// The variants must not degenerate into the same trace: TA performs
	// extra atomic stores versus TTC; TF touches frontier arrays.
	p := smallParams()
	p.Vertices = 1024
	counts := map[string]int{}
	for _, name := range []string{"BFS-TTC", "BFS-TA", "BFS-TF"} {
		w, err := Build(name, p)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, k := range w.Kernels {
			for blk := 0; blk < k.Blocks; blk++ {
				for wp := 0; wp < k.WarpsPerBlock(32); wp++ {
					st := k.Stream(blk, wp)
					for {
						acc, ok := st.Next()
						if !ok {
							break
						}
						total += len(acc.Addrs)
					}
				}
			}
		}
		counts[name] = total
	}
	if counts["BFS-TA"] <= counts["BFS-TTC"] {
		t.Errorf("BFS-TA traffic %d <= BFS-TTC %d; atomics should add accesses",
			counts["BFS-TA"], counts["BFS-TTC"])
	}
	if counts["BFS-TF"] <= counts["BFS-TTC"] {
		t.Errorf("BFS-TF traffic %d <= BFS-TTC %d; frontier flags should add accesses",
			counts["BFS-TF"], counts["BFS-TTC"])
	}
}

func TestKernelNamesCarryRound(t *testing.T) {
	p := smallParams()
	p.Vertices = 512
	w, err := Build("KCORE", p)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range w.Kernels {
		if !strings.HasPrefix(k.Name, "kcore-R") {
			t.Fatalf("kernel %d named %q", i, k.Name)
		}
	}
}
