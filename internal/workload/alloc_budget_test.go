package workload

import (
	"testing"

	"uvmsim/internal/trace"
)

// Compile writes every access straight into a kernel's flat arrays, so
// its allocations are the arrays' append growth: 76–85 per kernel
// measured at 8192 vertices, however many accesses the kernel has. One
// allocation per warp would add 256 per kernel here, and one per access
// tens of thousands.
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
