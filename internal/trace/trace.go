// Package trace defines the interface between workload models and the GPU
// simulator: a workload is a sequence of kernel launches, and each kernel
// writes, for every warp of every thread block, the stream of
// instructions (compute delays and per-lane memory addresses) the warp
// executes. The workload package writes these streams through a Builder
// by replaying the GraphBIG algorithms over laid-out data structures;
// Compile captures them once into a Compiled trace, which is what the GPU
// model replays.
package trace

import "uvmsim/internal/layout"

// Access is one warp instruction. ComputeCycles models the arithmetic work
// issued before the (optional) memory operation; Addrs holds the per-lane
// byte addresses of the memory operation, one per active lane (inactive
// lanes are simply absent — SIMT divergence shrinks the slice).
type Access struct {
	ComputeCycles uint64
	Addrs         []uint64
	Store         bool
}

// IsMemory reports whether the instruction accesses memory.
func (a Access) IsMemory() bool { return len(a.Addrs) > 0 }

// Kernel is one GPU kernel launch in generator form: its grid and the Emit
// that writes each warp's accesses. Compile is its one reader.
type Kernel struct {
	Name            string
	Blocks          int
	ThreadsPerBlock int
	RegsPerThread   int
	// Emit writes the given warp's accesses, in program order, into b.
	// It must be pure: compilations may emit a warp any number of times,
	// from concurrent goroutines, and must see the same accesses each
	// time.
	Emit func(b *Builder, block, warp int)
}

// WarpsPerBlock returns the number of warps a block occupies for the given
// warp size.
func (k Kernel) WarpsPerBlock(warpSize int) int {
	return (k.ThreadsPerBlock + warpSize - 1) / warpSize
}

// Workload is a complete benchmark in generator form: its address-space
// layout plus the kernels launched against it, in order.
type Workload struct {
	Name    string
	Space   *layout.Space
	Kernels []Kernel
	// Irregular marks graph-style workloads whose pages are shared across
	// thread blocks (Figure 1's distinction).
	Irregular bool
}

// PagesTouched replays every warp of the given block of k and returns the
// set of pages the block touches. Used by the Figure 1 working-set
// analysis and by tests.
func PagesTouched(k *CompiledKernel, block int, pageBytes uint64) map[uint64]struct{} {
	pages := make(map[uint64]struct{})
	for w := 0; w < k.warpsPerBlock; w++ {
		cur := k.Stream(block, w)
		for acc, ok := cur.Next(); ok; acc, ok = cur.Next() {
			for _, a := range acc.Addrs {
				pages[a/pageBytes] = struct{}{}
			}
		}
	}
	return pages
}
