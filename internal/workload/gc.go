package workload

import (
	"fmt"

	"uvmsim/internal/graph"
	"uvmsim/internal/trace"
)

// The two GraphBIG graph-coloring variants share the Jones–Plassmann
// rounds computed on the host; they differ in work mapping: GC-TTC scans
// all vertices topologically with one thread per vertex, while GC-DTC
// keeps an explicit worklist of still-uncolored vertices in memory
// (data-centric) and only those threads do edge work.

// gcRoundState precomputes, for each round, which vertices are colored in
// that round and which are still uncolored entering it.
type gcRoundState struct {
	coloredAt []int // round index each vertex is colored in
}

// maxGCRounds bounds the kernel count: Jones–Plassmann on power-law graphs
// has a long tail of near-empty rounds (hubs are colored last); real GPU
// implementations cut the tail over to a sequential conflict-resolution
// pass. We fold every round past the cap into one final round, which
// preserves the trace behaviour of the bulk phase while keeping kernel
// counts (and simulation time) bounded.
const maxGCRounds = 12

func newGCState(g *graph.CSR) (*gcRoundState, int) {
	_, rounds := graph.ColorRounds(g)
	s := &gcRoundState{coloredAt: make([]int, g.NumVertices())}
	for i := range s.coloredAt {
		s.coloredAt[i] = -1
	}
	n := len(rounds)
	if n > maxGCRounds {
		n = maxGCRounds
	}
	for r, round := range rounds {
		at := r
		if at >= maxGCRounds {
			at = maxGCRounds - 1
		}
		for _, v := range round {
			s.coloredAt[v] = at
		}
	}
	return s, n
}

// buildGCTTC is graph coloring, topological thread-centric.
func buildGCTTC(p Params) *trace.Workload {
	b := newGraphBase(p, false, "color")
	st, nRounds := newGCState(b.g)
	color := b.prop("color")
	var kernels []trace.Kernel
	for r := 0; r < nRounds; r++ {
		round := r
		kernels = append(kernels, threadCentricKernel(
			fmt.Sprintf("gc-ttc-R%d", r), b,
			func(tb *trace.Builder, v uint32) {
				tb.Load(color.Addr(int(v)))
				if st.coloredAt[v] < round {
					return // already colored: guard load only
				}
				// Uncolored: inspect neighbor colors/priorities.
				b.loadOffsets(tb, v)
				b.edgeOpsThread(tb, v, func(dst uint32) {
					tb.Load(color.Addr(int(dst)))
				})
				if st.coloredAt[v] == round {
					tb.Store(color.Addr(int(v)))
				}
			}))
	}
	return &trace.Workload{Name: "GC-TTC", Space: b.sp, Kernels: kernels, Irregular: true}
}

// buildGCDTC is graph coloring, data-thread-centric: each round's kernel
// reads a worklist of still-uncolored vertices; one thread per worklist
// entry.
func buildGCDTC(p Params) *trace.Workload {
	b := newGraphBase(p, false, "color")
	st, nRounds := newGCState(b.g)
	color := b.prop("color")
	worklist := b.sp.Alloc("worklist", 4, b.g.NumVertices())

	// Per-round worklists: vertices still uncolored entering round r.
	lists := make([][]uint32, nRounds)
	for v, at := range st.coloredAt {
		last := at
		if last == -1 {
			last = nRounds - 1
		}
		for r := 0; r <= last && r < nRounds; r++ {
			lists[r] = append(lists[r], uint32(v))
		}
	}

	tpb := b.p.ThreadsPerBlock
	compute := uint64(b.p.ComputeCycles)
	var kernels []trace.Kernel
	for r := 0; r < nRounds; r++ {
		round := r
		work := lists[r]
		blocks := (len(work) + tpb - 1) / tpb
		if blocks == 0 {
			blocks = 1
		}
		kernels = append(kernels, trace.Kernel{
			Name:            fmt.Sprintf("gc-dtc-R%d", r),
			Blocks:          blocks,
			ThreadsPerBlock: tpb,
			RegsPerThread:   b.p.RegsPerThread,
			Emit: func(tb *trace.Builder, block, warp int) {
				base := block*tpb + warp*32
				for i := base; i < base+32 && i < len(work); i++ {
					v := work[i]
					tb.Load(worklist.Addr(i)) // pop work item
					b.loadOffsets(tb, v)
					b.edgeOpsThread(tb, v, func(dst uint32) {
						tb.Load(color.Addr(int(dst)))
					})
					if st.coloredAt[v] == round {
						tb.Store(color.Addr(int(v)))
					} else {
						// Still uncolored: re-enqueue for the next round.
						tb.Store(worklist.Addr(i))
					}
					tb.EndLane()
				}
				tb.Lockstep(compute)
			},
		})
	}
	return &trace.Workload{Name: "GC-DTC", Space: b.sp, Kernels: kernels, Irregular: true}
}
