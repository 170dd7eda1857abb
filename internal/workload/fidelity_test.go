package workload

import (
	"testing"

	"uvmsim/internal/graph"
	"uvmsim/internal/trace"
)

// These tests check the trace generators against the reference algorithms:
// the traces must issue exactly the work the algorithm does, not merely
// plausible-looking addresses. Lane-operation totals survive the SIMT
// lockstep merge exactly, so they are the quantity compared.

// laneOpsPerKernel counts lane-level memory operations per kernel.
func laneOpsPerKernel(c *trace.Compiled) []int {
	out := make([]int, len(c.Kernels()))
	eachAccess(c, func(ki, _, _ int, acc trace.Access) { out[ki] += len(acc.Addrs) })
	return out
}

// compiled builds the named workload and compiles it at warp size 32.
func compiled(t testing.TB, name string, p Params) *trace.Compiled {
	t.Helper()
	c, err := BuildCompiled(name, p, 32)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return c
}

// eachAccess replays every warp of every kernel of c in grid order,
// calling fn with the kernel index, block, warp and access.
func eachAccess(c *trace.Compiled, fn func(kernel, block, warp int, acc trace.Access)) {
	for ki := range c.Kernels() {
		k := &c.Kernels()[ki]
		for b := 0; b < k.Blocks; b++ {
			for wp := 0; wp < k.WarpsPerBlock(); wp++ {
				cur := k.Stream(b, wp)
				for acc, ok := cur.Next(); ok; acc, ok = cur.Next() {
					fn(ki, b, wp, acc)
				}
			}
		}
	}
}

func TestBFSTTCTrafficMatchesAlgorithm(t *testing.T) {
	p := smallParams()
	p.Vertices = 1024
	w := compiled(t, "BFS-TTC", p)
	g := graph.RMAT(graph.GenConfig{Vertices: p.Vertices, EdgesPer: p.AvgDegree, Seed: p.Seed})
	levels, frontiers := graph.BFSLevels(g, bfsSource(g))

	got := laneOpsPerKernel(w)
	if len(got) != len(frontiers) {
		t.Fatalf("%d kernels for %d BFS levels", len(got), len(frontiers))
	}
	for d, frontier := range frontiers {
		// Every thread: 1 guard load. Active threads add 2 offset loads,
		// then per edge: 1 edge load + 1 level load + 1 store if the edge
		// discovers a level-(d+1) vertex.
		want := g.NumVertices()
		for _, v := range frontier {
			want += 2
			for _, u := range g.Neighbors(v) {
				want += 2
				if levels[u] == uint32(d)+1 {
					want++
				}
			}
		}
		if got[d] != want {
			t.Fatalf("level %d lane ops = %d, want %d", d, got[d], want)
		}
	}
}

func TestPRTrafficMatchesAlgorithm(t *testing.T) {
	p := smallParams()
	p.Vertices = 1024
	p.PRIterations = 2
	w := compiled(t, "PR", p)
	g := graph.RMAT(graph.GenConfig{Vertices: p.Vertices, EdgesPer: p.AvgDegree, Seed: p.Seed})

	got := laneOpsPerKernel(w)
	if len(got) != 2*p.PRIterations {
		t.Fatalf("%d kernels for %d iterations", len(got), p.PRIterations)
	}
	V, E := g.NumVertices(), g.NumEdges()
	wantPush := V + 2*V + 3*E // rank load + offsets + (edge, acc load, acc store)
	wantNorm := 3 * V         // next load, rank store, next reset
	for it := 0; it < p.PRIterations; it++ {
		if got[2*it] != wantPush {
			t.Fatalf("iteration %d push lane ops = %d, want %d", it, got[2*it], wantPush)
		}
		if got[2*it+1] != wantNorm {
			t.Fatalf("iteration %d norm lane ops = %d, want %d", it, got[2*it+1], wantNorm)
		}
	}
}

func TestKCoreTrafficMatchesAlgorithm(t *testing.T) {
	p := smallParams()
	p.Vertices = 1024
	w := compiled(t, "KCORE", p)
	g := graph.RMAT(graph.GenConfig{Vertices: p.Vertices, EdgesPer: p.AvgDegree, Seed: p.Seed})
	_, removed := graph.KCoreRounds(g, p.KCoreK)

	removedAt := make(map[uint32]int)
	for r, round := range removed {
		for _, v := range round {
			removedAt[v] = r
		}
	}
	aliveAt := func(v uint32, round int) bool {
		r, ok := removedAt[v]
		return !ok || r >= round
	}

	got := laneOpsPerKernel(w)
	if len(got) != len(removed)+1 {
		t.Fatalf("%d kernels for %d peel rounds (+1 fixpoint)", len(got), len(removed))
	}
	for r, round := range removed {
		// Every thread: 2 guard loads. Peeled threads add 1 alive store +
		// 2 offsets, then per edge: 1 edge load + 1 alive load + 2 more
		// (degree RMW) if the neighbor is still alive.
		want := 2 * g.NumVertices()
		for _, v := range round {
			want += 3
			for _, u := range g.Neighbors(v) {
				want += 2
				if aliveAt(u, r) {
					want += 2
				}
			}
		}
		if got[r] != want {
			t.Fatalf("round %d lane ops = %d, want %d", r, got[r], want)
		}
	}
	// The fixpoint round only performs guard loads.
	if last := got[len(got)-1]; last != 2*g.NumVertices() {
		t.Fatalf("fixpoint lane ops = %d, want %d", last, 2*g.NumVertices())
	}
}
