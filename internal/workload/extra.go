package workload

import (
	"fmt"

	"uvmsim/internal/graph"
	"uvmsim/internal/trace"
)

// Extension workloads beyond the paper's eleven: connected components
// (CC), triangle counting (TC), and degree centrality (DC) complete the
// GraphBIG categories. They are not part of the figure reproductions but
// exercise the same UVM paths with different sharing/locality profiles.

// Extensions lists the extra irregular workloads.
var Extensions = []string{"CC", "TC", "DC"}

// buildCC is label-propagation connected components, thread-centric: one
// kernel per propagation round; every vertex reads its label and its
// symmetric neighbors' labels, storing when its label improves.
func buildCC(p Params) *trace.Workload {
	b := newGraphBase(p, false, "label")
	_, rounds := graph.CCRounds(b.g)
	label := b.prop("label")

	changedAt := make([][]bool, len(rounds))
	for r, round := range rounds {
		changedAt[r] = make([]bool, b.g.NumVertices())
		for _, v := range round {
			changedAt[r][v] = true
		}
	}

	var kernels []trace.Kernel
	for r := range rounds {
		round := r
		kernels = append(kernels, threadCentricKernel(
			fmt.Sprintf("cc-R%d", r), b,
			func(tb *trace.Builder, v uint32) {
				tb.Load(label.Addr(int(v)))
				b.loadOffsets(tb, v)
				b.edgeOpsThread(tb, v, func(dst uint32) {
					tb.Load(label.Addr(int(dst)))
				})
				if changedAt[round][v] {
					tb.Store(label.Addr(int(v)))
				}
			}))
	}
	if len(kernels) == 0 {
		// A graph with no edges converges instantly; emit one sweep so
		// the workload is still runnable.
		kernels = append(kernels, threadCentricKernel("cc-R0", b,
			func(tb *trace.Builder, v uint32) { tb.Load(label.Addr(int(v))) }))
	}
	return &trace.Workload{Name: "CC", Space: b.sp, Kernels: kernels, Irregular: true}
}

// buildTC is forward triangle counting, warp-centric: one kernel; each
// warp takes vertices round-robin and its lanes walk the adjacency
// intersection (edge list loads of both endpoints), accumulating into a
// per-vertex counter.
func buildTC(p Params) *trace.Workload {
	b := newGraphBase(p, false, "tricount")
	count := b.prop("tricount")
	all := make([]uint32, b.g.NumVertices())
	for i := range all {
		all[i] = uint32(i)
	}
	k := warpCentricKernel("tc", b, all,
		func(tb *trace.Builder, v uint32, lane int) {
			if lane == 0 {
				b.loadOffsets(tb, v)
			}
			begin, end := b.g.EdgeRange(v)
			for e := begin + uint32(lane); e < end; e += 32 {
				u := b.g.Edges[e]
				if u <= v {
					continue
				}
				tb.Load(b.edges.Addr(int(e)))
				// Intersection walk: read u's neighbor list.
				b.loadOffsets(tb, u)
				ub, ue := b.g.EdgeRange(u)
				// Cap the scan the way warp-cooperative TC kernels do:
				// lanes stride the smaller list.
				for ee := ub; ee < ue; ee += 8 {
					tb.Load(b.edges.Addr(int(ee)))
				}
				tb.Load(count.Addr(int(v)))
				tb.Store(count.Addr(int(v)))
			}
		})
	return &trace.Workload{Name: "TC", Space: b.sp, Kernels: []trace.Kernel{k}, Irregular: true}
}

// buildDC is degree centrality, thread-centric: a single kernel; each
// vertex reads its offsets and atomically increments each out-neighbor's
// in-degree counter.
func buildDC(p Params) *trace.Workload {
	b := newGraphBase(p, false, "degree")
	degree := b.prop("degree")
	k := threadCentricKernel("dc", b,
		func(tb *trace.Builder, v uint32) {
			b.loadOffsets(tb, v)
			tb.Load(degree.Addr(int(v)))
			tb.Store(degree.Addr(int(v)))
			b.edgeOpsThread(tb, v, func(dst uint32) {
				tb.Load(degree.Addr(int(dst)))
				tb.Store(degree.Addr(int(dst)))
			})
		})
	return &trace.Workload{Name: "DC", Space: b.sp, Kernels: []trace.Kernel{k}, Irregular: true}
}
