// Package trace defines the interface between workload models and the GPU
// simulator: a workload is a sequence of kernel launches, and each kernel
// provides, for every warp of every thread block, the stream of
// instructions (compute delays and per-lane memory addresses) the warp
// executes. The GPU model consumes these streams; the workload package
// writes them through a Builder by replaying the GraphBIG algorithms over
// laid-out data structures.
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

// WarpStream yields a warp's instructions in program order.
type WarpStream interface {
	// Next returns the next instruction; ok is false at stream end.
	Next() (acc Access, ok bool)
	// PeekAhead returns the i-th upcoming instruction (0 = the one Next
	// would return) without consuming it; ok is false past the end of the
	// stream. It is the hook used by the runahead fault-generation
	// mechanism (an idealized form of the alternative Section 4.1 of the
	// paper discusses and sets aside).
	PeekAhead(i int) (acc Access, ok bool)
}

// Kernel is one GPU kernel launch. A generated kernel sets Emit; a
// compiled view, or a hand-written kernel that is replayed but never
// compiled, sets NewWarpStream. Stream serves either.
type Kernel struct {
	Name            string
	Blocks          int
	ThreadsPerBlock int
	RegsPerThread   int
	// Emit writes the given warp's accesses, in program order, into b.
	// It must be pure: Compile and live replay may emit a warp any number
	// of times, from concurrent goroutines, and must see the same
	// accesses each time.
	Emit func(b *Builder, block, warp int)
	// NewWarpStream returns a fresh instruction stream for the given warp
	// of the given block. Streams must be pure: the simulator (and the
	// working-set analyzer) may create them any number of times.
	NewWarpStream func(block, warp int) WarpStream
}

// Stream returns a fresh replay stream for the given warp of the given
// block: NewWarpStream's stream when it is set, and otherwise a cursor
// over the warp emitted into a one-warp Builder. It is the one place
// that chooses between a compiled cursor and live emission. The live
// cursor keeps the Builder's open segment as it is, so it holds the
// warp's own arrays and no more.
func (k Kernel) Stream(block, warp int) WarpStream {
	if k.NewWarpStream != nil {
		return k.NewWarpStream(block, warp)
	}
	var b Builder
	b.begin(k, 1, 1)
	k.Emit(&b, block, warp)
	b.endWarp()
	if b.err != nil {
		panic(b.err)
	}
	s := b.open // the cursor keeps the warp's arrays, not the lane scratch
	return &Cursor{s: &s, end: int32(len(s.compute))}
}

// WarpsPerBlock returns the number of warps a block occupies for the given
// warp size.
func (k Kernel) WarpsPerBlock(warpSize int) int {
	return (k.ThreadsPerBlock + warpSize - 1) / warpSize
}

// Workload is a complete benchmark: its address-space layout plus the
// kernels launched against it, in order.
type Workload struct {
	Name    string
	Space   *layout.Space
	Kernels []Kernel
	// Irregular marks graph-style workloads whose pages are shared across
	// thread blocks (Figure 1's distinction).
	Irregular bool
}

// FootprintPages returns the workload's memory footprint in pages.
func (w *Workload) FootprintPages() int { return w.Space.FootprintPages() }

// FootprintBytes returns the workload's memory footprint in bytes.
func (w *Workload) FootprintBytes() uint64 { return w.Space.FootprintBytes() }

// SliceStream is a WarpStream over a pre-built instruction slice.
type SliceStream struct {
	accs []Access
	pos  int
}

// NewSliceStream wraps a slice of instructions.
func NewSliceStream(accs []Access) *SliceStream { return &SliceStream{accs: accs} }

// Next implements WarpStream.
func (s *SliceStream) Next() (Access, bool) {
	if s.pos >= len(s.accs) {
		return Access{}, false
	}
	a := s.accs[s.pos]
	s.pos++
	return a, true
}

// PeekAhead implements WarpStream.
func (s *SliceStream) PeekAhead(i int) (Access, bool) {
	if i < 0 || s.pos+i >= len(s.accs) {
		return Access{}, false
	}
	return s.accs[s.pos+i], true
}

// DrainWarp creates a fresh stream for the given (block, warp) of k (see
// Kernel.Stream) and drains it into buf (reusing its capacity), returning
// the accesses in program order. The working-set analyzer (PagesTouched)
// consumes streams through it.
func DrainWarp(k Kernel, block, warp int, buf []Access) []Access {
	st := k.Stream(block, warp)
	for {
		acc, ok := st.Next()
		if !ok {
			return buf
		}
		buf = append(buf, acc)
	}
}

// PagesTouched drains a fresh stream for every warp of the given block and
// returns the set of pages the block touches. Used by the Figure 1
// working-set analysis and by tests.
func PagesTouched(k Kernel, block, warpSize int, pageBytes uint64) map[uint64]struct{} {
	pages := make(map[uint64]struct{})
	var buf []Access
	for w := 0; w < k.WarpsPerBlock(warpSize); w++ {
		buf = DrainWarp(k, block, w, buf[:0])
		for _, acc := range buf {
			for _, a := range acc.Addrs {
				pages[a/pageBytes] = struct{}{}
			}
		}
	}
	return pages
}
