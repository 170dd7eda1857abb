package graph

// Reference CPU implementations of the graph algorithms behind the
// GraphBIG workloads. The workload trace generators (internal/workload)
// replay these algorithms to know, for each kernel launch (BFS level, SSSP
// relaxation round, coloring round, ...), which vertices are active and
// what each GPU thread would read and write. Keeping the algorithmic truth
// here also gives the simulator an oracle to validate workload results
// against in tests.

import "slices"

const (
	// InfLevel marks an unreached vertex in BFS levels.
	InfLevel = ^uint32(0)
	// InfDist marks an unreached vertex in SSSP distances.
	InfDist = ^uint32(0)
)

// BFSLevels runs breadth-first search from src and returns the level of
// every vertex (InfLevel if unreachable) plus the frontier of each level:
// frontiers[i] lists the vertices at depth i, in ascending vertex order
// (the order a topological GPU kernel scans them in).
func BFSLevels(g *CSR, src uint32) (levels []uint32, frontiers [][]uint32) {
	n := g.NumVertices()
	levels = make([]uint32, n)
	for i := range levels {
		levels[i] = InfLevel
	}
	levels[src] = 0
	frontier := []uint32{src}
	for depth := uint32(0); len(frontier) > 0; depth++ {
		frontiers = append(frontiers, frontier)
		var next []uint32
		for _, v := range frontier {
			for _, u := range g.Neighbors(v) {
				if levels[u] == InfLevel {
					levels[u] = depth + 1
					next = append(next, u)
				}
			}
		}
		slices.Sort(next)
		frontier = next
	}
	return levels, frontiers
}

// SSSPRounds runs Bellman-Ford-style single-source shortest path from src
// and returns final distances plus, for each relaxation round, the set of
// vertices whose distance changed in the *previous* round (i.e. the active
// set the GPU kernel processes in that round). Round 0's active set is
// {src}.
func SSSPRounds(g *CSR, src uint32) (dist []uint32, rounds [][]uint32) {
	n := g.NumVertices()
	dist = make([]uint32, n)
	for i := range dist {
		dist[i] = InfDist
	}
	dist[src] = 0
	active := []uint32{src}
	for len(active) > 0 {
		rounds = append(rounds, active)
		changed := make(map[uint32]bool)
		for _, v := range active {
			dv := dist[v]
			begin, end := g.EdgeRange(v)
			for i := begin; i < end; i++ {
				u := g.Edges[i]
				w := g.Weights[i]
				if nd := dv + w; nd < dist[u] {
					dist[u] = nd
					changed[u] = true
				}
			}
		}
		active = keysSorted(changed)
	}
	return dist, rounds
}

// PageRank runs the power-iteration PageRank with damping factor d for
// iters iterations and returns the final ranks. Every vertex is active in
// every iteration, so no per-round sets are needed.
func PageRank(g *CSR, d float64, iters int) []float64 {
	n := g.NumVertices()
	rank := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1.0 / float64(n)
	}
	for it := 0; it < iters; it++ {
		base := (1 - d) / float64(n)
		for i := range next {
			next[i] = base
		}
		for v := 0; v < n; v++ {
			deg := g.Degree(uint32(v))
			if deg == 0 {
				continue
			}
			share := d * rank[v] / float64(deg)
			for _, u := range g.Neighbors(uint32(v)) {
				next[u] += share
			}
		}
		rank, next = next, rank
	}
	return rank
}

// KCoreRounds performs k-core decomposition by iterative peeling: each
// round removes every remaining vertex with degree (among remaining
// vertices) below k. It returns the per-vertex flag of membership in the
// k-core and the list of vertices removed in each round.
func KCoreRounds(g *CSR, k int) (inCore []bool, removed [][]uint32) {
	n := g.NumVertices()
	inCore = make([]bool, n)
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		inCore[v] = true
		deg[v] = g.Degree(uint32(v))
	}
	// Reverse adjacency: removing u lowers the remaining out-degree of
	// every v with an edge v -> u.
	rev := make([][]uint32, n)
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(uint32(v)) {
			rev[u] = append(rev[u], uint32(v))
		}
	}
	for {
		var round []uint32
		for v := 0; v < n; v++ {
			if inCore[v] && deg[v] < k {
				round = append(round, uint32(v))
			}
		}
		if len(round) == 0 {
			break
		}
		for _, u := range round {
			inCore[u] = false
		}
		for _, u := range round {
			for _, v := range rev[u] {
				if inCore[v] {
					deg[v]--
				}
			}
		}
		removed = append(removed, round)
	}
	return inCore, removed
}

// ColorRounds runs Jones–Plassmann greedy graph coloring with random
// priorities derived from vertex IDs: in each round, every uncolored vertex
// whose hashed priority exceeds those of all uncolored neighbors (in the
// symmetric closure of the directed graph — coloring constrains both edge
// directions) takes the smallest color unused by its neighbors. It returns
// final colors and the vertices colored in each round.
func ColorRounds(g *CSR) (colors []uint32, rounds [][]uint32) {
	const uncolored = ^uint32(0)
	n := g.NumVertices()
	colors = make([]uint32, n)
	for i := range colors {
		colors[i] = uncolored
	}
	sym := symmetricAdjacency(g)
	prio := func(v uint32) uint64 {
		x := uint64(v) + 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		return x ^ (x >> 27)
	}
	// higher reports whether a beats b in the strict total priority order.
	higher := func(a, b uint32) bool {
		pa, pb := prio(a), prio(b)
		if pa != pb {
			return pa > pb
		}
		return a > b
	}
	remaining := n
	for remaining > 0 {
		var round []uint32
		for v := 0; v < n; v++ {
			if colors[v] != uncolored {
				continue
			}
			isMax := true
			for _, u := range sym[v] {
				if u != uint32(v) && colors[u] == uncolored && higher(u, uint32(v)) {
					isMax = false
					break
				}
			}
			if isMax {
				round = append(round, uint32(v))
			}
		}
		if len(round) == 0 {
			break // defensive: cannot happen with strict priorities
		}
		for _, v := range round {
			var used map[uint32]bool
			for _, u := range sym[v] {
				if c := colors[u]; c != uncolored {
					if used == nil {
						used = make(map[uint32]bool)
					}
					used[c] = true
				}
			}
			c := uint32(0)
			for used[c] {
				c++
			}
			colors[v] = c
		}
		remaining -= len(round)
		rounds = append(rounds, round)
	}
	return colors, rounds
}

// symmetricAdjacency returns, for each vertex, the union of its out- and
// in-neighbors.
func symmetricAdjacency(g *CSR) [][]uint32 {
	n := g.NumVertices()
	adj := make([][]uint32, n)
	for v := 0; v < n; v++ {
		adj[v] = append(adj[v], g.Neighbors(uint32(v))...)
	}
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(uint32(v)) {
			adj[u] = append(adj[u], uint32(v))
		}
	}
	return adj
}

// ValidColoring reports whether colors is a proper coloring of g (no edge
// joins two same-colored distinct vertices).
func ValidColoring(g *CSR, colors []uint32) bool {
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(uint32(v)) {
			if u != uint32(v) && colors[u] == colors[uint32(v)] {
				return false
			}
		}
	}
	return true
}

// BCStages computes Brandes betweenness-centrality stages for one source:
// the forward BFS frontiers, the per-vertex shortest-path counts sigma, and
// the dependency accumulation order (frontiers reversed). The GPU workload
// replays one forward sweep and one backward sweep per source.
func BCStages(g *CSR, src uint32) (levels []uint32, frontiers [][]uint32, sigma []float64) {
	levels, frontiers = BFSLevels(g, src)
	n := g.NumVertices()
	sigma = make([]float64, n)
	sigma[src] = 1
	for _, frontier := range frontiers {
		for _, v := range frontier {
			for _, u := range g.Neighbors(v) {
				if levels[u] == levels[v]+1 {
					sigma[u] += sigma[v]
				}
			}
		}
	}
	return levels, frontiers, sigma
}

func keysSorted(m map[uint32]bool) []uint32 {
	if len(m) == 0 {
		return nil
	}
	out := make([]uint32, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
