package workload

import (
	"testing"

	"uvmsim/internal/trace"
)

func BenchmarkBuildBFSTTC(b *testing.B) {
	p := Default()
	p.Vertices = 1 << 15
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build("BFS-TTC", p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompiledBuildVsLoad prices the artifact store's payoff on one
// Table-1 workload, BFS-TTC at 8192 vertices. "build" is the full
// cache-miss path: generate the graph, run the builder, compile every
// warp stream. "load" reads the identical compiled trace back from the
// UVMCMP1 artifact saved during set-up: one sequential read plus section
// reslicing. build ÷ load is what a warm store saves per workload.
func BenchmarkCompiledBuildVsLoad(b *testing.B) {
	p := Default()
	p.Vertices = 1 << 13
	store, err := trace.OpenArtifactStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	c, err := BuildCompiled("BFS-TTC", p, 32)
	if err != nil {
		b.Fatal(err)
	}
	key := trace.ArtifactKey("BFS-TTC", "bench", p.Seed, 32)
	if err := store.SaveCompiled(key, c); err != nil {
		b.Fatal(err)
	}
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := BuildCompiled("BFS-TTC", p, 32); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := store.LoadCompiled(key); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkWarpStreamGeneration(b *testing.B) {
	p := Default()
	p.Vertices = 1 << 15
	w, err := Build("PR", p)
	if err != nil {
		b.Fatal(err)
	}
	k := w.Kernels[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := k.Stream(i%k.Blocks, i%k.WarpsPerBlock(32))
		for {
			if _, ok := st.Next(); !ok {
				break
			}
		}
	}
}
