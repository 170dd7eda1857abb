package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"testing"

	"uvmsim/internal/sim"
)

// Test-only references: the comparison-sort CSR construction and the
// Float64-switch RMAT draw that FromEdgeList and rmatEdges replaced. The
// oracle tests below hold the linear-time code to them.

// refFromEdgeList sorts an index permutation by (src, dst) with sort.Slice,
// which leaves duplicate edges in whatever order pdqsort produces.
func refFromEdgeList(n int, src, dst, w []uint32) *CSR {
	idx := make([]int, len(src))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if src[ia] != src[ib] {
			return src[ia] < src[ib]
		}
		return dst[ia] < dst[ib]
	})
	g := &CSR{
		Offsets: make([]uint32, n+1),
		Edges:   make([]uint32, len(src)),
		Weights: make([]uint32, len(src)),
	}
	for _, i := range idx {
		g.Offsets[src[i]+1]++
	}
	for v := 0; v < n; v++ {
		g.Offsets[v+1] += g.Offsets[v]
	}
	cursor := make([]uint32, n)
	for _, i := range idx {
		p := g.Offsets[src[i]] + cursor[src[i]]
		g.Edges[p] = dst[i]
		g.Weights[p] = w[i]
		cursor[src[i]]++
	}
	return g
}

// refRMATEdges draws each quadrant bit from Float64 through a switch.
func refRMATEdges(cfg GenConfig) (src, dst, w []uint32) {
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
	for i := 0; i < m; i++ {
		var u, v uint32
		for bit := scale - 1; bit >= 0; bit-- {
			p := r.Float64()
			switch {
			case p < a:
			case p < a+b:
				v |= 1 << bit
			case p < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		src[i] = u % uint32(cfg.Vertices)
		dst[i] = v % uint32(cfg.Vertices)
		w[i] = weightFor(r, cfg.Weighted)
	}
	return src, dst, w
}

// refUniformEdges pins Uniform's draw.
func refUniformEdges(cfg GenConfig) (src, dst, w []uint32) {
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

// checkAgainstReference checks g, built from the edge list, against
// refFromEdgeList: Offsets and Edges must be equal, and each duplicate
// (src, dst) run must hold the reference run's weights in input order.
func checkAgainstReference(t *testing.T, g *CSR, n int, src, dst, w []uint32) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	ref := refFromEdgeList(n, src, dst, w)
	if !slices.Equal(g.Offsets, ref.Offsets) {
		t.Fatal("Offsets differ from the reference construction")
	}
	if !slices.Equal(g.Edges, ref.Edges) {
		t.Fatal("Edges differ from the reference construction")
	}
	// Input order within a run: sort the edge indices by (src, dst, index).
	idx := make([]int, len(src))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		return cmp.Or(cmp.Compare(src[a], src[b]), cmp.Compare(dst[a], dst[b]), cmp.Compare(a, b))
	})
	for p, i := range idx {
		if g.Weights[p] != w[i] {
			t.Fatalf("edge %d (%d->%d): weight %d, want input-order weight %d", p, src[i], dst[i], g.Weights[p], w[i])
		}
	}
	for v := 0; v < n; v++ {
		begin, end := g.EdgeRange(uint32(v))
		for lo := begin; lo < end; {
			hi := lo + 1
			for hi < end && g.Edges[hi] == g.Edges[lo] {
				hi++
			}
			if hi-lo > 1 {
				got, want := slices.Clone(g.Weights[lo:hi]), slices.Clone(ref.Weights[lo:hi])
				slices.Sort(got)
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Fatalf("run %d->%d: weights %v, reference multiset %v", v, g.Edges[lo], got, want)
				}
			}
			lo = hi
		}
	}
}

func TestFromEdgeListMatchesReference(t *testing.T) {
	cases := []struct {
		name       string
		n, m       int
		srcs, dsts int // src and dst drawn from [0, srcs) and [0, dsts)
	}{
		{"n1-m0", 1, 0, 1, 1},
		{"n1-selfloops", 1, 40, 1, 1},
		{"m0", 300, 0, 300, 300},
		{"heavy-duplicates", 50, 4000, 50, 4},
		{"hub-duplicates", 64, 2000, 2, 8},
		{"isolated-vertices", 1000, 3000, 100, 1000},
		{"sparse", 5000, 20000, 5000, 5000},
	}
	for _, tc := range cases {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				r := sim.NewRand(seed)
				src := make([]uint32, tc.m)
				dst := make([]uint32, tc.m)
				w := make([]uint32, tc.m)
				for i := range src {
					src[i] = uint32(r.Intn(tc.srcs))
					dst[i] = uint32(r.Intn(tc.dsts))
					w[i] = uint32(r.Uint64())
				}
				checkAgainstReference(t, FromEdgeList(tc.n, src, dst, w), tc.n, src, dst, w)
			})
		}
	}
}

func TestGeneratorsMatchReference(t *testing.T) {
	gens := []struct {
		name       string
		edges, ref func(GenConfig) (src, dst, w []uint32)
		build      func(GenConfig) *CSR
	}{
		{"rmat", rmatEdges, refRMATEdges, RMAT},
		{"uniform", uniformEdges, refUniformEdges, Uniform},
	}
	for _, gen := range gens {
		for _, vertices := range []int{1000, 4096, 100000} {
			for _, seed := range []uint64{1, 7, 42} {
				for _, weighted := range []bool{false, true} {
					cfg := GenConfig{Vertices: vertices, EdgesPer: 8, Seed: seed, Weighted: weighted}
					t.Run(fmt.Sprintf("%s/v%d/seed%d/weighted=%v", gen.name, vertices, seed, weighted), func(t *testing.T) {
						t.Parallel()
						src, dst, w := gen.edges(cfg)
						rsrc, rdst, rw := gen.ref(cfg)
						if !slices.Equal(src, rsrc) || !slices.Equal(dst, rdst) || !slices.Equal(w, rw) {
							t.Fatal("edge list differs from the reference draw")
						}
						if vertices <= 4096 {
							checkAgainstReference(t, gen.build(cfg), vertices, src, dst, w)
						}
					})
				}
			}
		}
	}
}

// TestThresholdMatchesFloat64Compare checks the integer quadrant threshold
// against Float64's compare at the boundary of every RMAT threshold.
func TestThresholdMatchesFloat64Compare(t *testing.T) {
	const a, b, c = 0.57, 0.19, 0.19
	for _, p := range []float64{a, a + b, a + b + c} {
		tp := threshold(p)
		for x := tp - 2; x <= tp+2; x++ {
			below := float64(x)/(1<<53) < p
			if below != (atLeast(x, tp) == 0) {
				t.Errorf("threshold %v: x=%d, float compare says below=%v", p, x, below)
			}
		}
	}
}
