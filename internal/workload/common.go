package workload

import (
	"uvmsim/internal/graph"
	"uvmsim/internal/layout"
	"uvmsim/internal/trace"
)

// gbase holds a graph workload's input graph and address-space layout.
type gbase struct {
	p       Params
	g       *graph.CSR
	sp      *layout.Space
	offsets layout.Array
	edges   layout.Array
	weights layout.Array            // zero Array when unweighted
	props   map[string]layout.Array // named per-vertex property arrays
}

// newGraphBase generates the input graph and lays out the CSR plus the
// requested per-vertex property arrays (4 bytes per element each).
func newGraphBase(p Params, weighted bool, propNames ...string) *gbase {
	g := graph.RMAT(graph.GenConfig{
		Vertices: p.Vertices,
		EdgesPer: p.AvgDegree,
		Seed:     p.Seed,
		Weighted: weighted,
	})
	sp := layout.NewSpace(p.PageBytes)
	b := &gbase{
		p:       p,
		g:       g,
		sp:      sp,
		offsets: sp.Alloc("offsets", 4, g.NumVertices()+1),
		edges:   sp.Alloc("edges", 4, g.NumEdges()),
		props:   make(map[string]layout.Array),
	}
	if weighted {
		b.weights = sp.Alloc("weights", 4, g.NumEdges())
	}
	for _, name := range propNames {
		b.props[name] = sp.Alloc(name, 4, g.NumVertices())
	}
	return b
}

// prop returns the named property array; missing names panic (a workload
// bug, not a runtime condition).
func (b *gbase) prop(name string) layout.Array {
	a, ok := b.props[name]
	if !ok {
		panic("workload: unknown property array " + name)
	}
	return a
}

// loadOffsets emits the current lane's two offset loads (begin and end)
// for vertex v.
func (b *gbase) loadOffsets(tb *trace.Builder, v uint32) {
	tb.Load(b.offsets.Addr(int(v)))
	tb.Load(b.offsets.Addr(int(v) + 1))
}

// threadCentricKernel builds a kernel with one thread per vertex. laneOps
// emits, into tb, the operation sequence of the thread owning vertex v.
func threadCentricKernel(name string, b *gbase, laneOps func(tb *trace.Builder, v uint32)) trace.Kernel {
	tpb := b.p.ThreadsPerBlock
	n := b.g.NumVertices()
	blocks := (n + tpb - 1) / tpb
	compute := uint64(b.p.ComputeCycles)
	return trace.Kernel{
		Name:            name,
		Blocks:          blocks,
		ThreadsPerBlock: tpb,
		RegsPerThread:   b.p.RegsPerThread,
		Emit: func(tb *trace.Builder, block, warp int) {
			base := block*tpb + warp*32
			for v := base; v < base+32 && v < n; v++ {
				laneOps(tb, uint32(v))
				tb.EndLane()
			}
			tb.Lockstep(compute)
		},
	}
}

// warpCentricKernel builds a kernel where warps cooperatively process a
// work list of vertices: warp w handles work[w], work[w+W], ... and for
// each vertex the 32 lanes split the work via perVertex(tb, v, lane).
func warpCentricKernel(name string, b *gbase, work []uint32, perVertex func(tb *trace.Builder, v uint32, lane int)) trace.Kernel {
	tpb := b.p.ThreadsPerBlock
	warpsPerBlock := tpb / 32
	// Grid sized as GraphBIG does: enough blocks to give each warp a
	// modest chunk, bounded by the vertex count.
	blocks := (len(work) + tpb - 1) / tpb
	if blocks == 0 {
		blocks = 1
	}
	totalWarps := blocks * warpsPerBlock
	compute := uint64(b.p.ComputeCycles)
	return trace.Kernel{
		Name:            name,
		Blocks:          blocks,
		ThreadsPerBlock: tpb,
		RegsPerThread:   b.p.RegsPerThread,
		Emit: func(tb *trace.Builder, block, warp int) {
			for i := block*warpsPerBlock + warp; i < len(work); i += totalWarps {
				v := work[i]
				for lane := 0; lane < 32; lane++ {
					perVertex(tb, v, lane)
					tb.EndLane()
				}
				tb.Lockstep(compute)
			}
		},
	}
}

// edgeOpsThread emits a thread-serial edge scan of vertex v into the
// current lane: for each out-edge, load the edge, then visit(dst).
func (b *gbase) edgeOpsThread(tb *trace.Builder, v uint32, visit func(dst uint32)) {
	begin, end := b.g.EdgeRange(v)
	for e := begin; e < end; e++ {
		tb.Load(b.edges.Addr(int(e)))
		visit(b.g.Edges[e])
	}
}

// edgeOpsWarp emits lane's share of a warp-parallel edge scan of vertex v
// (lanes take edges lane, lane+32, ...).
func (b *gbase) edgeOpsWarp(tb *trace.Builder, v uint32, lane int, visit func(dst uint32)) {
	begin, end := b.g.EdgeRange(v)
	for e := begin + uint32(lane); e < end; e += 32 {
		tb.Load(b.edges.Addr(int(e)))
		visit(b.g.Edges[e])
	}
}
