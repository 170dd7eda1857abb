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
		if w.Space.FootprintPages() == 0 {
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

// addressesInSpace replays every warp of every kernel and checks all
// addresses fall inside the workload's managed space.
func addressesInSpace(t *testing.T, c *trace.Compiled) (totalAccesses int) {
	t.Helper()
	eachAccess(c, func(ki, blk, wp int, acc trace.Access) {
		totalAccesses++
		for _, a := range acc.Addrs {
			if !c.Space().Contains(a) {
				t.Fatalf("%s/%s block %d warp %d: address %#x outside managed space",
					c.Name, c.Kernels()[ki].Name, blk, wp, a)
			}
		}
		if len(acc.Addrs) > 32 {
			t.Fatalf("%s/%s: access with %d lanes", c.Name, c.Kernels()[ki].Name, len(acc.Addrs))
		}
	})
	return totalAccesses
}

func TestAllAddressesInsideSpace(t *testing.T) {
	p := smallParams()
	p.Vertices = 512
	p.RegularElems = 1 << 11
	for _, name := range All() {
		if n := addressesInSpace(t, compiled(t, name, p)); n == 0 {
			t.Errorf("%s: no accesses generated", name)
		}
	}
}

// TestStreamsArePure holds a generator to Kernel.Emit's purity contract:
// compiling one built workload twice emits every warp twice, and both
// compiles must hold the same trace.
func TestStreamsArePure(t *testing.T) {
	p := smallParams()
	p.Vertices = 512
	w, err := Build("BFS-TTC", p)
	if err != nil {
		t.Fatal(err)
	}
	var digests [2]string
	for i := range digests {
		c, err := trace.Compile(w, 32)
		if err != nil {
			t.Fatal(err)
		}
		digests[i] = traceDigest(c)
	}
	if digests[0] != digests[1] {
		t.Fatalf("two compiles of one workload differ: %s vs %s", digests[0], digests[1])
	}
}

// TestConcurrentEmitMatchesCompiled holds every catalog generator to
// Kernel.Emit's contract: a warp may be emitted from concurrent
// goroutines and must give the same accesses each time. Each workload is
// built once and compiled serially; then goroutines compile it again, all
// at once, and each compile must hold the serial compile's trace. Under
// -race this catches a generator that keeps mutable state in a kernel
// closure instead of in the Builder.
func TestConcurrentEmitMatchesCompiled(t *testing.T) {
	const goroutines, warpSize = 4, 32
	p := fidelityParams()
	for _, name := range All() {
		w, err := Build(name, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		serial, err := trace.Compile(w, warpSize)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := traceDigest(serial)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, err := trace.Compile(w, warpSize)
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				if got := traceDigest(c); got != want {
					t.Errorf("%s: concurrent compile digest %s, serial %s", name, got, want)
				}
			}()
		}
		wg.Wait()
	}
}

func TestIrregularSharesPagesAcrossBlocks(t *testing.T) {
	// The Figure 1 premise: irregular workloads share most pages across
	// blocks; regular workloads keep block working sets disjoint.
	p := smallParams()
	p.Vertices = 4096
	c := compiled(t, "BFS-TTC", p)
	// Pick the busiest kernel (level with most work).
	k := &c.Kernels()[1]
	if k.Blocks < 2 {
		t.Skip("kernel has a single block")
	}
	a := trace.PagesTouched(k, 0, p.PageBytes)
	b := trace.PagesTouched(k, 1, p.PageBytes)
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
		k := &compiled(t, name, p).Kernels()[0]
		a := trace.PagesTouched(k, 0, p.PageBytes)
		b := trace.PagesTouched(k, 10, p.PageBytes)
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
		lanes, _ := drainTraffic(compiled(t, name, p))
		counts[name] = lanes
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
