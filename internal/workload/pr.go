package workload

import (
	"fmt"

	"uvmsim/internal/trace"
)

// buildPR is push-style PageRank: each power iteration launches one
// thread-centric kernel in which every vertex reads its rank and degree
// and atomically accumulates its contribution into each out-neighbor's
// next-rank slot, followed by a thread-centric normalization kernel that
// swaps rank buffers.
func buildPR(p Params) *trace.Workload {
	b := newGraphBase(p, false, "rank", "next")
	rank := b.prop("rank")
	next := b.prop("next")
	var kernels []trace.Kernel
	for it := 0; it < p.PRIterations; it++ {
		kernels = append(kernels, threadCentricKernel(
			fmt.Sprintf("pr-push-I%d", it), b,
			func(tb *trace.Builder, v uint32) {
				tb.Load(rank.Addr(int(v)))
				b.loadOffsets(tb, v)
				b.edgeOpsThread(tb, v, func(dst uint32) {
					// atomicAdd on the destination accumulator.
					tb.Load(next.Addr(int(dst)))
					tb.Store(next.Addr(int(dst)))
				})
			}))
		kernels = append(kernels, threadCentricKernel(
			fmt.Sprintf("pr-norm-I%d", it), b,
			func(tb *trace.Builder, v uint32) {
				tb.Load(next.Addr(int(v)))
				tb.Store(rank.Addr(int(v)))
				tb.Store(next.Addr(int(v))) // reset accumulator
			}))
	}
	return &trace.Workload{Name: "PR", Space: b.sp, Kernels: kernels, Irregular: true}
}
