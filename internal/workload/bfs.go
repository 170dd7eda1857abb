package workload

import (
	"fmt"

	"uvmsim/internal/graph"
	"uvmsim/internal/trace"
)

// The five GraphBIG BFS implementations differ in how threads map to work
// and how the frontier is represented; those choices produce the different
// fault/batch behaviours the paper evaluates. All variants launch one
// kernel per BFS level, as the CUDA implementations do.

// buildBFSTTC is topological thread-centric: every thread owns one vertex
// and checks its level each iteration.
func buildBFSTTC(p Params) *trace.Workload {
	b := newGraphBase(p, false, "level")
	levels, frontiers := graph.BFSLevels(b.g, bfsSource(b.g))
	level := b.prop("level")
	var kernels []trace.Kernel
	for d := range frontiers {
		depth := uint32(d)
		kernels = append(kernels, threadCentricKernel(
			fmt.Sprintf("bfs-ttc-L%d", d), b,
			func(tb *trace.Builder, v uint32) {
				tb.Load(level.Addr(int(v))) // status check
				if levels[v] != depth {
					return
				}
				b.loadOffsets(tb, v)
				b.edgeOpsThread(tb, v, func(dst uint32) {
					tb.Load(level.Addr(int(dst)))
					if levels[dst] == depth+1 {
						tb.Store(level.Addr(int(dst)))
					}
				})
			}))
	}
	return &trace.Workload{Name: "BFS-TTC", Space: b.sp, Kernels: kernels, Irregular: true}
}

// buildBFSTA is topological-atomic: discovery uses an atomic
// compare-and-swap on the destination level, costing a read-modify-write
// on every unvisited neighbor, not just the winning one.
func buildBFSTA(p Params) *trace.Workload {
	b := newGraphBase(p, false, "level")
	levels, frontiers := graph.BFSLevels(b.g, bfsSource(b.g))
	level := b.prop("level")
	var kernels []trace.Kernel
	for d := range frontiers {
		depth := uint32(d)
		kernels = append(kernels, threadCentricKernel(
			fmt.Sprintf("bfs-ta-L%d", d), b,
			func(tb *trace.Builder, v uint32) {
				tb.Load(level.Addr(int(v)))
				if levels[v] != depth {
					return
				}
				b.loadOffsets(tb, v)
				b.edgeOpsThread(tb, v, func(dst uint32) {
					tb.Load(level.Addr(int(dst)))
					if levels[dst] > depth {
						// atomicCAS: a full read-modify-write on the
						// destination, issued by every parent (not just
						// the winner).
						tb.Load(level.Addr(int(dst)))
						tb.Store(level.Addr(int(dst)))
					}
				})
			}))
	}
	return &trace.Workload{Name: "BFS-TA", Space: b.sp, Kernels: kernels, Irregular: true}
}

// buildBFSTF is topological-frontier: explicit current/next frontier flag
// arrays are read and written alongside the level array.
func buildBFSTF(p Params) *trace.Workload {
	b := newGraphBase(p, false, "level", "front", "nextfront")
	levels, frontiers := graph.BFSLevels(b.g, bfsSource(b.g))
	level := b.prop("level")
	front := b.prop("front")
	next := b.prop("nextfront")
	var kernels []trace.Kernel
	for d := range frontiers {
		depth := uint32(d)
		kernels = append(kernels, threadCentricKernel(
			fmt.Sprintf("bfs-tf-L%d", d), b,
			func(tb *trace.Builder, v uint32) {
				tb.Load(front.Addr(int(v))) // am I in the frontier?
				tb.Store(next.Addr(int(v))) // clear my next flag
				if levels[v] != depth {
					return
				}
				b.loadOffsets(tb, v)
				b.edgeOpsThread(tb, v, func(dst uint32) {
					tb.Load(level.Addr(int(dst)))
					if levels[dst] == depth+1 {
						tb.Store(level.Addr(int(dst)))
						tb.Store(next.Addr(int(dst)))
					}
				})
			}))
	}
	return &trace.Workload{Name: "BFS-TF", Space: b.sp, Kernels: kernels, Irregular: true}
}

// buildBFSTWC is topological warp-centric: warps sweep all vertices, and a
// vertex's edges are split across the 32 lanes.
func buildBFSTWC(p Params) *trace.Workload {
	b := newGraphBase(p, false, "level")
	levels, frontiers := graph.BFSLevels(b.g, bfsSource(b.g))
	level := b.prop("level")
	all := make([]uint32, b.g.NumVertices())
	for i := range all {
		all[i] = uint32(i)
	}
	var kernels []trace.Kernel
	for d := range frontiers {
		depth := uint32(d)
		kernels = append(kernels, warpCentricKernel(
			fmt.Sprintf("bfs-twc-L%d", d), b, all,
			func(tb *trace.Builder, v uint32, lane int) {
				if lane == 0 {
					tb.Load(level.Addr(int(v)))
				}
				if levels[v] != depth {
					return
				}
				if lane == 0 {
					b.loadOffsets(tb, v)
				}
				b.edgeOpsWarp(tb, v, lane, func(dst uint32) {
					tb.Load(level.Addr(int(dst)))
					if levels[dst] == depth+1 {
						tb.Store(level.Addr(int(dst)))
					}
				})
			}))
	}
	return &trace.Workload{Name: "BFS-TWC", Space: b.sp, Kernels: kernels, Irregular: true}
}

// buildBFSDWC is data warp-centric: the frontier lives in a work queue in
// memory; warps pull vertices from the queue, giving the extremely
// divergent access pattern the paper singles out (Section 5.2).
func buildBFSDWC(p Params) *trace.Workload {
	b := newGraphBase(p, false, "level")
	levels, frontiers := graph.BFSLevels(b.g, bfsSource(b.g))
	level := b.prop("level")
	// Two ping-pong frontier queues.
	maxQ := b.g.NumVertices()
	qA := b.sp.Alloc("queueA", 4, maxQ)
	qB := b.sp.Alloc("queueB", 4, maxQ)
	// queuePos[v] is v's slot in the queue of its own level (its index in
	// frontiers[levels[v]]), or -1 if v is unreached. A level-d vertex
	// pops from that slot of the in-queue; a vertex it discovers is
	// pushed to that vertex's slot of the out-queue.
	queuePos := make([]int32, b.g.NumVertices())
	for i := range queuePos {
		queuePos[i] = -1
	}
	for _, frontier := range frontiers {
		for i, v := range frontier {
			queuePos[v] = int32(i)
		}
	}
	var kernels []trace.Kernel
	for d, frontier := range frontiers {
		depth := uint32(d)
		inQ, outQ := qA, qB
		if d%2 == 1 {
			inQ, outQ = qB, qA
		}
		kernels = append(kernels, warpCentricKernel(
			fmt.Sprintf("bfs-dwc-L%d", d), b, frontier,
			func(tb *trace.Builder, v uint32, lane int) {
				if lane == 0 {
					// Pop the vertex from the in-queue.
					tb.Load(inQ.Addr(int(queuePos[v])))
					b.loadOffsets(tb, v)
				}
				b.edgeOpsWarp(tb, v, lane, func(dst uint32) {
					tb.Load(level.Addr(int(dst)))
					if levels[dst] == depth+1 {
						tb.Store(level.Addr(int(dst)))
						tb.Store(outQ.Addr(int(queuePos[dst])))
					}
				})
			}))
	}
	return &trace.Workload{Name: "BFS-DWC", Space: b.sp, Kernels: kernels, Irregular: true}
}
