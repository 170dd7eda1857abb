// Package graph provides the compressed-sparse-row graph representation and
// the synthetic graph generators used as workload inputs.
//
// The paper evaluates GraphBIG workloads on (truncated) real-world datasets.
// Those datasets are not available offline, so this package substitutes
// synthetic graphs: RMAT (Kronecker-style power-law) graphs reproduce the
// skewed degree distributions and poor access locality that make graph
// workloads irregular, and uniform random graphs provide a locality
// control. See DESIGN.md §4.
package graph

import (
	"fmt"
	"math"
	"slices"

	"uvmsim/internal/sim"
)

// CSR is a directed graph in compressed-sparse-row form. Vertex IDs are
// dense in [0, NumVertices). Edges out of vertex v are
// Edges[Offsets[v]:Offsets[v+1]], with per-edge weights in the parallel
// Weights slice.
type CSR struct {
	Offsets []uint32 // len NumVertices+1
	Edges   []uint32 // len NumEdges
	Weights []uint32 // len NumEdges; 1 for unweighted graphs
}

// NumVertices returns the vertex count.
func (g *CSR) NumVertices() int { return len(g.Offsets) - 1 }

// NumEdges returns the directed edge count.
func (g *CSR) NumEdges() int { return len(g.Edges) }

// Degree returns the out-degree of v.
func (g *CSR) Degree(v uint32) int {
	return int(g.Offsets[v+1] - g.Offsets[v])
}

// Neighbors returns the slice of destinations of edges out of v. The slice
// aliases the graph's storage and must not be modified.
func (g *CSR) Neighbors(v uint32) []uint32 {
	return g.Edges[g.Offsets[v]:g.Offsets[v+1]]
}

// EdgeRange returns the [begin, end) indices into Edges for vertex v.
func (g *CSR) EdgeRange(v uint32) (begin, end uint32) {
	return g.Offsets[v], g.Offsets[v+1]
}

// MaxDegree returns the largest out-degree in the graph, and the vertex
// that has it.
func (g *CSR) MaxDegree() (vertex uint32, degree int) {
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(uint32(v)); d > degree {
			degree = d
			vertex = uint32(v)
		}
	}
	return vertex, degree
}

// Validate checks structural invariants and returns a descriptive error on
// the first violation.
func (g *CSR) Validate() error {
	if len(g.Offsets) == 0 {
		return fmt.Errorf("graph: empty offsets array")
	}
	if g.Offsets[0] != 0 {
		return fmt.Errorf("graph: offsets[0] = %d, want 0", g.Offsets[0])
	}
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		if g.Offsets[v+1] < g.Offsets[v] {
			return fmt.Errorf("graph: offsets not monotonic at vertex %d", v)
		}
	}
	if int(g.Offsets[n]) != len(g.Edges) {
		return fmt.Errorf("graph: offsets[n] = %d but %d edges", g.Offsets[n], len(g.Edges))
	}
	if len(g.Weights) != len(g.Edges) {
		return fmt.Errorf("graph: %d weights for %d edges", len(g.Weights), len(g.Edges))
	}
	for i, dst := range g.Edges {
		if int(dst) >= n {
			return fmt.Errorf("graph: edge %d targets vertex %d >= %d", i, dst, n)
		}
	}
	return nil
}

// FromEdgeList builds a CSR graph with n vertices from (src, dst, weight)
// triples; every src and dst must be below n. Each vertex's edges come out
// sorted by dst, and duplicate edges are kept in input order (multigraph
// semantics match the generators, which deduplicate themselves when
// asked). Construction is a stable two-pass counting sort: O(n + edges)
// time and 4 bytes of scratch per edge.
func FromEdgeList(n int, src, dst, w []uint32) *CSR {
	if len(src) != len(dst) || len(src) != len(w) {
		panic("graph: mismatched edge list slices")
	}
	// Pass 1: a stable counting sort of the edge indices by dst.
	dstStart := runStarts(dst, n)
	next := slices.Clone(dstStart)
	byDst := make([]uint32, len(dst))
	for i, d := range dst {
		byDst[next[d]] = uint32(i)
		next[d]++
	}
	// Pass 2: bucket by src in pass 1's order, so each vertex's edges land
	// sorted by dst, duplicates in input order.
	g := &CSR{
		Offsets: runStarts(src, n),
		Edges:   make([]uint32, len(src)),
		Weights: make([]uint32, len(src)),
	}
	copy(next, g.Offsets)
	for d := 0; d < n; d++ {
		for _, i := range byDst[dstStart[d]:dstStart[d+1]] {
			s := src[i]
			p := next[s]
			g.Edges[p] = uint32(d)
			g.Weights[p] = w[i]
			next[s] = p + 1
		}
	}
	return g
}

// runStarts returns the prefix sums of the histogram of keys, all below n:
// in key order, key k's run is [starts[k], starts[k+1]).
func runStarts(keys []uint32, n int) []uint32 {
	starts := make([]uint32, n+1)
	for _, k := range keys {
		starts[k+1]++
	}
	for v := 0; v < n; v++ {
		starts[v+1] += starts[v]
	}
	return starts
}

// GenConfig parameterizes the synthetic generators.
type GenConfig struct {
	Vertices int    // number of vertices (RMAT rounds up to a power of two)
	EdgesPer int    // average directed edges per vertex
	Seed     uint64 // PRNG seed
	Weighted bool   // random weights in [1, 64] instead of all-1
}

// RMAT generates a power-law graph with the classic R-MAT partition
// probabilities (a, b, c, d) = (0.57, 0.19, 0.19, 0.05), the Graph500
// parameters. The result has skewed degrees: a few very-high-degree hub
// vertices and a long tail, which is what defeats page locality in the
// irregular workloads.
func RMAT(cfg GenConfig) *CSR {
	src, dst, w := rmatEdges(cfg)
	return FromEdgeList(cfg.Vertices, src, dst, w)
}

// rmatEdges draws RMAT's edge list in generation order.
func rmatEdges(cfg GenConfig) (src, dst, w []uint32) {
	n := 1
	for n < cfg.Vertices {
		n <<= 1
	}
	scale := 0
	for 1<<scale < n {
		scale++
	}
	m := cfg.Vertices * cfg.EdgesPer
	r := sim.NewRand(cfg.Seed)
	src = make([]uint32, m)
	dst = make([]uint32, m)
	w = make([]uint32, m)
	const a, b, c = 0.57, 0.19, 0.19
	// Each bit picks a quadrant from p = Float64(): upper-left (p < a)
	// sets neither bit, upper-right (p < a+b) sets v, lower-left
	// (p < a+b+c) sets u and lower-right sets both. Float64 is
	// (Uint64()>>11) / 2^53, so p < T exactly when x := Uint64()>>11 is
	// below threshold(T). As tA <= tAB <= tABC, u is x >= tAB and v, set
	// on [tA, tAB) and from tABC up, is the XOR of the three x >= t flags:
	// no float compare and no data-dependent branch.
	tA, tAB, tABC := threshold(a), threshold(a+b), threshold(a+b+c)
	for i := 0; i < m; i++ {
		var u, v uint32
		for bit := 0; bit < scale; bit++ {
			x := r.Uint64() >> 11
			geA, geAB, geABC := atLeast(x, tA), atLeast(x, tAB), atLeast(x, tABC)
			u = u<<1 | geAB
			v = v<<1 | (geA ^ geAB ^ geABC)
		}
		// Fold vertices beyond the requested count back into range so the
		// caller gets exactly cfg.Vertices vertices.
		src[i] = u % uint32(cfg.Vertices)
		dst[i] = v % uint32(cfg.Vertices)
		w[i] = weightFor(r, cfg.Weighted)
	}
	return src, dst, w
}

// threshold returns ceil(t·2^53): the least 53-bit x with x/2^53 >= t.
// Scaling by a power of two is exact, so no rounding enters.
func threshold(t float64) uint64 {
	return uint64(math.Ceil(t * (1 << 53)))
}

// atLeast returns 1 if x >= t and 0 otherwise, for x, t < 2^63: x-t wraps
// and sets bit 63 exactly when x < t.
func atLeast(x, t uint64) uint32 {
	return uint32(1 ^ ((x - t) >> 63))
}

// Uniform generates an Erdős–Rényi-style random graph with m = Vertices ×
// EdgesPer directed edges chosen uniformly.
func Uniform(cfg GenConfig) *CSR {
	src, dst, w := uniformEdges(cfg)
	return FromEdgeList(cfg.Vertices, src, dst, w)
}

// uniformEdges draws Uniform's edge list in generation order.
func uniformEdges(cfg GenConfig) (src, dst, w []uint32) {
	m := cfg.Vertices * cfg.EdgesPer
	r := sim.NewRand(cfg.Seed)
	src = make([]uint32, m)
	dst = make([]uint32, m)
	w = make([]uint32, m)
	for i := 0; i < m; i++ {
		src[i] = uint32(r.Intn(cfg.Vertices))
		dst[i] = uint32(r.Intn(cfg.Vertices))
		w[i] = weightFor(r, cfg.Weighted)
	}
	return src, dst, w
}

func weightFor(r *sim.Rand, weighted bool) uint32 {
	if !weighted {
		return 1
	}
	return uint32(r.Intn(64)) + 1
}

// DegreeHistogram returns counts of vertices bucketed by log2(degree+1);
// bucket i counts vertices with degree in [2^i - 1, 2^(i+1) - 1).
func DegreeHistogram(g *CSR) []int {
	var hist []int
	for v := 0; v < g.NumVertices(); v++ {
		d := g.Degree(uint32(v))
		bucket := 0
		for (1<<uint(bucket+1))-1 <= d {
			bucket++
		}
		for len(hist) <= bucket {
			hist = append(hist, 0)
		}
		hist[bucket]++
	}
	return hist
}
