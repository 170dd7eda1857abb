package workload

import (
	"fmt"

	"uvmsim/internal/graph"
	"uvmsim/internal/trace"
)

// buildKCore is k-core decomposition by iterative peeling: each round a
// thread-centric kernel scans all vertices; a live vertex whose current
// degree dropped below k removes itself and atomically decrements the
// degree of each live out-neighbor.
func buildKCore(p Params) *trace.Workload {
	b := newGraphBase(p, false, "degree", "alive")
	_, removedRounds := graph.KCoreRounds(b.g, p.KCoreK)
	degree := b.prop("degree")
	alive := b.prop("alive")

	// removedAt[v] = round v is peeled in, or -1 if it stays in the core.
	removedAt := make([]int, b.g.NumVertices())
	for i := range removedAt {
		removedAt[i] = -1
	}
	for r, round := range removedRounds {
		for _, v := range round {
			removedAt[v] = r
		}
	}

	var kernels []trace.Kernel
	// One extra round at the end observes the fixpoint (no removals), as
	// the real implementation does to detect termination.
	for r := 0; r <= len(removedRounds); r++ {
		round := r
		kernels = append(kernels, threadCentricKernel(
			fmt.Sprintf("kcore-R%d", r), b,
			func(tb *trace.Builder, v uint32) {
				tb.Load(alive.Addr(int(v)))
				tb.Load(degree.Addr(int(v)))
				if removedAt[v] != round {
					return
				}
				// Peel: mark dead, decrement live out-neighbors.
				tb.Store(alive.Addr(int(v)))
				b.loadOffsets(tb, v)
				b.edgeOpsThread(tb, v, func(dst uint32) {
					tb.Load(alive.Addr(int(dst)))
					if removedAt[dst] == -1 || removedAt[dst] >= round {
						// Neighbor still alive: atomic decrement.
						tb.Load(degree.Addr(int(dst)))
						tb.Store(degree.Addr(int(dst)))
					}
				})
			}))
	}
	return &trace.Workload{Name: "KCORE", Space: b.sp, Kernels: kernels, Irregular: true}
}
