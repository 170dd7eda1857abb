package workload

import (
	"runtime"
	"testing"

	"uvmsim/internal/trace"
)

// Compile writes every access into a reused open segment and copies it
// out in segments of whole warps, so its allocations are four per
// segment plus the scratch: 73 for BFS-TTC's 5 kernels and 89 for
// SSSP-TWC's 7 measured at 8192 vertices, however many accesses the
// kernels have. One allocation per warp would add 256 per kernel here,
// and one per access tens of thousands.
const (
	maxCompileAllocsPerKernel = 100
	compileAllocSlack         = 200
)

// TestCompileAllocationBudget is the CI guard for capture: trace.Compile
// of two generated workloads, built beforehand, must allocate in
// proportion to its kernels, not its accesses.
func TestCompileAllocationBudget(t *testing.T) {
	p := Default()
	p.Vertices = 1 << 13
	for _, name := range []string{"BFS-TTC", "SSSP-TWC"} {
		w, err := Build(name, p)
		if err != nil {
			t.Fatal(err)
		}
		var c *trace.Compiled
		allocs := testing.AllocsPerRun(1, func() {
			if c, err = trace.Compile(w, 32); err != nil {
				t.Fatal(err)
			}
		})
		budget := maxCompileAllocsPerKernel*len(w.Kernels) + compileAllocSlack
		t.Logf("%s: Compile %.0f allocs for %d kernels, %d accesses (budget %d)",
			name, allocs, len(w.Kernels), c.Accesses(), budget)
		if allocs > float64(budget) {
			t.Errorf("%s: Compile allocates %.0f times, budget is %d; "+
				"a per-warp or per-access allocation has probably crept into a generator or trace.Builder",
				name, allocs, budget)
		}
	}
}

// Compile writes each access into a reused open segment and copies it
// once, into an exactly sized segment, so the bytes it allocates are the
// compiled trace (ArtifactBytes, plus allocator rounding) and a fixed
// scratch: the open segment's arrays, reserved at twice the 1 MiB segment
// size, and Lockstep's lane scratch, which grows to the largest warp.
// Measured at 8192 vertices: BFS-TTC 5.32 MB for a 2.25 MB trace (2.37x),
// SSSP-TWC 8.54 MB for 5.60 MB (1.52x). Growing each kernel's arrays with
// append instead allocates about five times the trace (4.92x and 4.94x
// measured), which the budget rejects.
const (
	compileTraceFactor  = 1.3
	compileScratchBytes = 4 << 20
)

// TestCompileByteBudget is the CI guard for capture's bytes: trace.Compile
// of two generated workloads, built beforehand, must allocate within
// compileTraceFactor times the trace it keeps plus compileScratchBytes.
func TestCompileByteBudget(t *testing.T) {
	p := Default()
	p.Vertices = 1 << 13
	for _, name := range []string{"BFS-TTC", "SSSP-TWC"} {
		w, err := Build(name, p)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		c, err := trace.Compile(w, 32)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		alloc, kept := after.TotalAlloc-before.TotalAlloc, c.ArtifactBytes()
		budget := compileTraceFactor*float64(kept) + compileScratchBytes
		t.Logf("%s: Compile allocated %d bytes for a %d-byte trace (%.2fx; budget %.0f)",
			name, alloc, kept, float64(alloc)/float64(kept), budget)
		if float64(alloc) > budget {
			t.Errorf("%s: Compile allocated %d bytes, budget is %.0f; "+
				"a kernel-sized array is probably being grown or copied again",
				name, alloc, budget)
		}
	}
}
