package graph

import (
	"testing"
	"testing/quick"
)

// chain returns a path graph 0 -> 1 -> ... -> n-1.
func chain(n int) *CSR {
	var src, dst, w []uint32
	for i := 0; i < n-1; i++ {
		src = append(src, uint32(i))
		dst = append(dst, uint32(i+1))
		w = append(w, 1)
	}
	return FromEdgeList(n, src, dst, w)
}

func TestFromEdgeListBasic(t *testing.T) {
	g := FromEdgeList(4,
		[]uint32{2, 0, 0, 1},
		[]uint32{3, 1, 2, 3},
		[]uint32{7, 1, 2, 3},
	)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("got %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
	if d := g.Degree(0); d != 2 {
		t.Fatalf("degree(0) = %d, want 2", d)
	}
	nb := g.Neighbors(0)
	if len(nb) != 2 || nb[0] != 1 || nb[1] != 2 {
		t.Fatalf("neighbors(0) = %v, want [1 2]", nb)
	}
	// Edge list was unsorted; weight must follow its edge.
	begin, _ := g.EdgeRange(2)
	if g.Edges[begin] != 3 || g.Weights[begin] != 7 {
		t.Fatalf("edge 2->3 weight = %d, want 7", g.Weights[begin])
	}
}

func TestFromEdgeListEmptyVertices(t *testing.T) {
	g := FromEdgeList(5, nil, nil, nil)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 5; v++ {
		if g.Degree(uint32(v)) != 0 {
			t.Fatalf("vertex %d has nonzero degree in empty graph", v)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := chain(4)
	g.Edges[0] = 99
	if g.Validate() == nil {
		t.Fatal("Validate accepted out-of-range edge target")
	}
	g = chain(4)
	g.Offsets[1] = 100
	if g.Validate() == nil {
		t.Fatal("Validate accepted non-monotonic offsets")
	}
	g = chain(4)
	g.Weights = g.Weights[:1]
	if g.Validate() == nil {
		t.Fatal("Validate accepted mismatched weights")
	}
}

func TestRMATProperties(t *testing.T) {
	cfg := GenConfig{Vertices: 1000, EdgesPer: 8, Seed: 1}
	g := RMAT(cfg)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 1000 {
		t.Fatalf("vertices = %d, want 1000", g.NumVertices())
	}
	if g.NumEdges() != 8000 {
		t.Fatalf("edges = %d, want 8000", g.NumEdges())
	}
	_, maxDeg := g.MaxDegree()
	// Power-law: the hub should be far above the average degree of 8.
	if maxDeg < 40 {
		t.Fatalf("RMAT max degree = %d; expected a skewed hub (>40)", maxDeg)
	}
}

func TestRMATDeterministic(t *testing.T) {
	cfg := GenConfig{Vertices: 256, EdgesPer: 4, Seed: 9}
	a, b := RMAT(cfg), RMAT(cfg)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same-seed RMAT graphs differ in edge count")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("same-seed RMAT graphs differ at edge %d", i)
		}
	}
}

func TestUniformProperties(t *testing.T) {
	cfg := GenConfig{Vertices: 1000, EdgesPer: 8, Seed: 2, Weighted: true}
	g := Uniform(cfg)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	_, maxDeg := g.MaxDegree()
	// Uniform degrees concentrate near the mean; a hub like RMAT's would
	// indicate a broken generator.
	if maxDeg > 30 {
		t.Fatalf("uniform max degree = %d; expected near-mean degrees", maxDeg)
	}
	for i, w := range g.Weights {
		if w < 1 || w > 64 {
			t.Fatalf("weight[%d] = %d outside [1,64]", i, w)
		}
	}
}

func TestDegreeHistogramSums(t *testing.T) {
	g := RMAT(GenConfig{Vertices: 512, EdgesPer: 6, Seed: 3})
	hist := DegreeHistogram(g)
	total := 0
	for _, c := range hist {
		total += c
	}
	if total != g.NumVertices() {
		t.Fatalf("histogram sums to %d, want %d", total, g.NumVertices())
	}
}

func TestGeneratedGraphsAlwaysValid(t *testing.T) {
	f := func(seed uint64, vRaw, eRaw uint8) bool {
		cfg := GenConfig{
			Vertices: int(vRaw)%200 + 2,
			EdgesPer: int(eRaw)%8 + 1,
			Seed:     seed,
		}
		return RMAT(cfg).Validate() == nil && Uniform(cfg).Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// paperGraph has the shape of a -scale paper workload's graph: 2^18
// vertices at degree 16, 4.2M edges.
var paperGraph = GenConfig{Vertices: 1 << 18, EdgesPer: 16, Seed: 42}

var benchSink *CSR

// BenchmarkRMAT times a whole paper-scale RMAT build: the edge draw plus
// the CSR construction.
func BenchmarkRMAT(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = RMAT(paperGraph)
	}
}

// BenchmarkFromEdgeList times the CSR construction alone over a
// paper-scale RMAT edge list.
func BenchmarkFromEdgeList(b *testing.B) {
	src, dst, w := rmatEdges(paperGraph)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = FromEdgeList(paperGraph.Vertices, src, dst, w)
	}
}

func BenchmarkBFSLevels(b *testing.B) {
	g := RMAT(GenConfig{Vertices: 1 << 15, EdgesPer: 8, Seed: 1})
	src, _ := g.MaxDegree()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BFSLevels(g, src)
	}
}
