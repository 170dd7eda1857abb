package graph

import (
	"testing"
	"testing/quick"
)

func TestBFSLevelsChain(t *testing.T) {
	g := chain(5)
	levels, frontiers := BFSLevels(g, 0)
	for v, want := range []uint32{0, 1, 2, 3, 4} {
		if levels[v] != want {
			t.Fatalf("level[%d] = %d, want %d", v, levels[v], want)
		}
	}
	if len(frontiers) != 5 {
		t.Fatalf("got %d frontiers, want 5", len(frontiers))
	}
	for i, f := range frontiers {
		if len(f) != 1 || f[0] != uint32(i) {
			t.Fatalf("frontier %d = %v", i, f)
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := FromEdgeList(4, []uint32{0}, []uint32{1}, []uint32{1})
	levels, _ := BFSLevels(g, 0)
	if levels[2] != InfLevel || levels[3] != InfLevel {
		t.Fatalf("unreachable vertices got levels %d, %d", levels[2], levels[3])
	}
}

func TestBFSFrontiersPartitionReachable(t *testing.T) {
	g := RMAT(GenConfig{Vertices: 300, EdgesPer: 5, Seed: 11})
	levels, frontiers := BFSLevels(g, 0)
	seen := make(map[uint32]int)
	for depth, f := range frontiers {
		for _, v := range f {
			if _, dup := seen[v]; dup {
				t.Fatalf("vertex %d appears in two frontiers", v)
			}
			seen[v] = depth
			if levels[v] != uint32(depth) {
				t.Fatalf("vertex %d in frontier %d has level %d", v, depth, levels[v])
			}
		}
	}
	for v, lv := range levels {
		if lv != InfLevel {
			if _, ok := seen[uint32(v)]; !ok {
				t.Fatalf("reachable vertex %d missing from frontiers", v)
			}
		}
	}
}

func TestSSSPMatchesBFSOnUnitWeights(t *testing.T) {
	g := RMAT(GenConfig{Vertices: 200, EdgesPer: 4, Seed: 5})
	levels, _ := BFSLevels(g, 0)
	dist, _ := SSSPRounds(g, 0)
	for v := range levels {
		if levels[v] != dist[v] {
			t.Fatalf("vertex %d: BFS level %d != unit-weight SSSP dist %d", v, levels[v], dist[v])
		}
	}
}

func TestSSSPWeightedTriangleInequality(t *testing.T) {
	// Property: for every edge (v,u,w), dist[u] <= dist[v] + w.
	f := func(seed uint64) bool {
		g := Uniform(GenConfig{Vertices: 100, EdgesPer: 4, Seed: seed, Weighted: true})
		dist, _ := SSSPRounds(g, 0)
		for v := 0; v < g.NumVertices(); v++ {
			if dist[v] == InfDist {
				continue
			}
			begin, end := g.EdgeRange(uint32(v))
			for i := begin; i < end; i++ {
				u, w := g.Edges[i], g.Weights[i]
				if dist[u] > dist[v]+w {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSSSPRoundsCoverChanges(t *testing.T) {
	g := Uniform(GenConfig{Vertices: 150, EdgesPer: 5, Seed: 8, Weighted: true})
	dist, rounds := SSSPRounds(g, 0)
	if len(rounds) == 0 || len(rounds[0]) != 1 || rounds[0][0] != 0 {
		t.Fatalf("round 0 = %v, want [0]", rounds)
	}
	// Every vertex with finite distance (except src) must appear in some
	// round, since its distance changed at least once.
	seen := map[uint32]bool{}
	for _, r := range rounds {
		for _, v := range r {
			seen[v] = true
		}
	}
	for v, d := range dist {
		if d != InfDist && !seen[uint32(v)] {
			t.Fatalf("vertex %d has dist %d but never appeared in a round", v, d)
		}
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	g := RMAT(GenConfig{Vertices: 200, EdgesPer: 6, Seed: 4})
	rank := PageRank(g, 0.85, 10)
	var sum float64
	for _, r := range rank {
		if r < 0 {
			t.Fatal("negative rank")
		}
		sum += r
	}
	// Rank mass leaks at zero-out-degree vertices (standard for the simple
	// formulation); the sum must stay in (0, 1].
	if sum <= 0 || sum > 1.0001 {
		t.Fatalf("rank sum = %v", sum)
	}
}

func TestPageRankHubOutranksLeaf(t *testing.T) {
	// star: all spokes point at vertex 0
	var src, dst, w []uint32
	for i := 1; i < 20; i++ {
		src = append(src, uint32(i))
		dst = append(dst, 0)
		w = append(w, 1)
	}
	g := FromEdgeList(20, src, dst, w)
	rank := PageRank(g, 0.85, 20)
	if rank[0] <= rank[1] {
		t.Fatalf("hub rank %v <= spoke rank %v", rank[0], rank[1])
	}
}

func TestKCoreChain(t *testing.T) {
	// A chain has max out-degree 1; with k=2 everything peels away.
	g := chain(6)
	inCore, removed := KCoreRounds(g, 2)
	for v, in := range inCore {
		if in {
			t.Fatalf("vertex %d survived 2-core of a chain", v)
		}
	}
	if len(removed) == 0 {
		t.Fatal("no removal rounds recorded")
	}
}

func TestKCoreDegreesRespectK(t *testing.T) {
	g := RMAT(GenConfig{Vertices: 300, EdgesPer: 5, Seed: 13})
	const k = 3
	inCore, _ := KCoreRounds(g, k)
	// Every surviving vertex must have >= k surviving out-neighbors.
	for v := 0; v < g.NumVertices(); v++ {
		if !inCore[v] {
			continue
		}
		deg := 0
		for _, u := range g.Neighbors(uint32(v)) {
			if inCore[u] {
				deg++
			}
		}
		if deg < k {
			t.Fatalf("core vertex %d has only %d core neighbors", v, deg)
		}
	}
}

func TestColoringIsProper(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		g := RMAT(GenConfig{Vertices: 250, EdgesPer: 4, Seed: seed})
		colors, rounds := ColorRounds(g)
		if !ValidColoring(g, colors) {
			t.Fatalf("seed %d: improper coloring", seed)
		}
		total := 0
		for _, r := range rounds {
			total += len(r)
		}
		if total != g.NumVertices() {
			t.Fatalf("seed %d: rounds colored %d of %d vertices", seed, total, g.NumVertices())
		}
	}
}

func TestBCStagesSigma(t *testing.T) {
	// Diamond: 0->1, 0->2, 1->3, 2->3. Two shortest paths reach 3.
	g := FromEdgeList(4,
		[]uint32{0, 0, 1, 2},
		[]uint32{1, 2, 3, 3},
		[]uint32{1, 1, 1, 1},
	)
	_, _, sigma := BCStages(g, 0)
	if sigma[3] != 2 {
		t.Fatalf("sigma[3] = %v, want 2", sigma[3])
	}
	if sigma[1] != 1 || sigma[2] != 1 {
		t.Fatalf("sigma[1,2] = %v, %v, want 1, 1", sigma[1], sigma[2])
	}
}
