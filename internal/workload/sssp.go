package workload

import (
	"fmt"

	"uvmsim/internal/graph"
	"uvmsim/internal/trace"
)

// buildSSSPTWC is single-source shortest path, topological warp-centric:
// one relaxation kernel per round; warps sweep all vertices, active ones
// (whose distance changed last round) relax their edges with lanes
// splitting the edge list. Weighted edges add a weight load per edge.
func buildSSSPTWC(p Params) *trace.Workload {
	b := newGraphBase(p, true, "dist", "active")
	src := bfsSource(b.g)
	_, rounds := graph.SSSPRounds(b.g, src)
	dist := b.prop("dist")
	activeArr := b.prop("active")

	all := make([]uint32, b.g.NumVertices())
	for i := range all {
		all[i] = uint32(i)
	}

	// inRound[r][v] marks v active in round r; one extra all-false round
	// follows the last. Round r relaxes inRound[r], and the vertices whose
	// distance improves are next round's active set, inRound[r+1].
	inRound := make([][]bool, len(rounds)+1)
	for r := range inRound {
		inRound[r] = make([]bool, b.g.NumVertices())
		if r < len(rounds) {
			for _, v := range rounds[r] {
				inRound[r][v] = true
			}
		}
	}

	var kernels []trace.Kernel
	for rIdx := range rounds {
		active, changed := inRound[rIdx], inRound[rIdx+1]
		kernels = append(kernels, warpCentricKernel(
			fmt.Sprintf("sssp-twc-R%d", rIdx), b, all,
			func(tb *trace.Builder, v uint32, lane int) {
				if lane == 0 {
					tb.Load(activeArr.Addr(int(v)))
				}
				if !active[v] {
					return
				}
				if lane == 0 {
					tb.Load(dist.Addr(int(v)))
					b.loadOffsets(tb, v)
				}
				begin, end := b.g.EdgeRange(v)
				for e := begin + uint32(lane); e < end; e += 32 {
					dst := b.g.Edges[e]
					tb.Load(b.edges.Addr(int(e)))
					tb.Load(b.weights.Addr(int(e)))
					tb.Load(dist.Addr(int(dst))) // atomicMin read
					if changed[dst] {
						tb.Store(dist.Addr(int(dst)))
						tb.Store(activeArr.Addr(int(dst)))
					}
				}
			}))
	}
	return &trace.Workload{Name: "SSSP-TWC", Space: b.sp, Kernels: kernels, Irregular: true}
}
