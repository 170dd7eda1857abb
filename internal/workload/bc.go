package workload

import (
	"fmt"

	"uvmsim/internal/graph"
	"uvmsim/internal/trace"
)

// buildBC is Brandes betweenness centrality: for each sampled source, a
// forward BFS phase counts shortest paths (sigma) level by level, then a
// backward phase accumulates dependencies (delta) from the deepest level
// up, and finally the per-vertex centrality is updated. Sources are the
// highest-degree vertices (the interesting ones on power-law graphs).
func buildBC(p Params) *trace.Workload {
	b := newGraphBase(p, false, "level", "sigma", "delta", "bc")
	level := b.prop("level")
	sigma := b.prop("sigma")
	delta := b.prop("delta")
	bcArr := b.prop("bc")

	sources := topDegreeVertices(b.g, p.BCSources)
	var kernels []trace.Kernel
	for si, src := range sources {
		levels, frontiers, _ := graph.BCStages(b.g, src)

		// Forward sweep: one kernel per level, thread-centric, updating
		// sigma of newly discovered vertices.
		for d := range frontiers {
			depth := uint32(d)
			kernels = append(kernels, threadCentricKernel(
				fmt.Sprintf("bc-s%d-fwd-L%d", si, d), b,
				func(tb *trace.Builder, v uint32) {
					tb.Load(level.Addr(int(v)))
					if levels[v] != depth {
						return
					}
					tb.Load(sigma.Addr(int(v)))
					b.loadOffsets(tb, v)
					b.edgeOpsThread(tb, v, func(dst uint32) {
						tb.Load(level.Addr(int(dst)))
						if levels[dst] == depth+1 {
							tb.Store(level.Addr(int(dst)))
							tb.Load(sigma.Addr(int(dst)))
							tb.Store(sigma.Addr(int(dst)))
						}
					})
				}))
		}

		// Backward sweep: deepest level first, accumulating delta.
		for d := len(frontiers) - 1; d >= 0; d-- {
			depth := uint32(d)
			kernels = append(kernels, threadCentricKernel(
				fmt.Sprintf("bc-s%d-bwd-L%d", si, d), b,
				func(tb *trace.Builder, v uint32) {
					tb.Load(level.Addr(int(v)))
					if levels[v] != depth {
						return
					}
					tb.Load(sigma.Addr(int(v)))
					tb.Load(delta.Addr(int(v)))
					b.loadOffsets(tb, v)
					b.edgeOpsThread(tb, v, func(dst uint32) {
						tb.Load(level.Addr(int(dst)))
						if levels[dst] == depth+1 {
							tb.Load(sigma.Addr(int(dst)))
							tb.Load(delta.Addr(int(dst)))
						}
					})
					tb.Store(delta.Addr(int(v)))
					tb.Load(bcArr.Addr(int(v)))
					tb.Store(bcArr.Addr(int(v)))
				}))
		}
	}
	return &trace.Workload{Name: "BC", Space: b.sp, Kernels: kernels, Irregular: true}
}

// topDegreeVertices returns the n highest-out-degree vertices.
func topDegreeVertices(g *graph.CSR, n int) []uint32 {
	type vd struct {
		v uint32
		d int
	}
	best := make([]vd, 0, n)
	for v := 0; v < g.NumVertices(); v++ {
		d := g.Degree(uint32(v))
		if len(best) < n {
			best = append(best, vd{uint32(v), d})
		} else {
			// Replace the smallest if this one is bigger.
			minI := 0
			for i := 1; i < len(best); i++ {
				if best[i].d < best[minI].d {
					minI = i
				}
			}
			if d > best[minI].d {
				best[minI] = vd{uint32(v), d}
			}
		}
	}
	out := make([]uint32, len(best))
	for i, b := range best {
		out[i] = b.v
	}
	return out
}
