package trace_test

import (
	"bytes"
	"testing"

	"uvmsim/internal/trace"
	"uvmsim/internal/workload"
)

// TestCatalogSegmentedCompile cuts two catalog workloads — one thread
// per vertex, one warp per vertex — into segments of a few kilobytes and
// checks that replay, the counts and the artifact bytes equal those of
// Compile, which holds each kernel in one segment at this size.
func TestCatalogSegmentedCompile(t *testing.T) {
	p := workload.Default()
	p.Vertices = 1 << 11
	for _, name := range []string{"BFS-TTC", "SSSP-TWC"} {
		w, err := workload.Build(name, p)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := trace.Compile(w, 32)
		if err != nil {
			t.Fatal(err)
		}
		c, err := trace.CompileSegmented(w, 32, 4096)
		if err != nil {
			t.Fatal(err)
		}
		segs := 0
		for i, k := range c.Kernels() {
			if n := ref.Kernels()[i].Segments(); n != 1 {
				t.Fatalf("%s: Compile cut kernel %d into %d segments, want 1", name, i, n)
			}
			segs += k.Segments()
		}
		if segs < 4*len(w.Kernels) {
			t.Fatalf("%s: %d segments over %d kernels; the test needs many per kernel", name, segs, len(w.Kernels))
		}
		if ref.Accesses() != c.Accesses() || ref.AddrWords() != c.AddrWords() || ref.ArtifactBytes() != c.ArtifactBytes() {
			t.Fatalf("%s: counts differ: accesses %d/%d, addr words %d/%d, artifact bytes %d/%d", name,
				c.Accesses(), ref.Accesses(), c.AddrWords(), ref.AddrWords(), c.ArtifactBytes(), ref.ArtifactBytes())
		}
		for i, k := range c.Kernels() {
			rk := ref.Kernels()[i]
			for blk := 0; blk < k.Blocks; blk++ {
				for wp := 0; wp < k.WarpsPerBlock(); wp++ {
					replayEqual(t, name, rk.Stream(blk, wp), k.Stream(blk, wp))
				}
			}
		}
		var a, b bytes.Buffer
		if err := trace.WriteCompiledArtifact(&a, ref, "k"); err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteCompiledArtifact(&b, c, "k"); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%s: segmented artifact bytes differ from Compile's", name)
		}
	}
}

// replayEqual walks two cursors in step through Next, peeking one access
// ahead each time.
func replayEqual(t *testing.T, name string, want, got trace.Cursor) {
	t.Helper()
	for i := 0; ; i++ {
		pw, okPW := want.PeekAhead(1)
		pg, okPG := got.PeekAhead(1)
		w, okW := want.Next()
		g, okG := got.Next()
		if okW != okG || okPW != okPG || !sameAccess(w, g) || !sameAccess(pw, pg) {
			t.Fatalf("%s: access %d differs", name, i)
		}
		if !okW {
			return
		}
	}
}

func sameAccess(a, b trace.Access) bool {
	if a.ComputeCycles != b.ComputeCycles || a.Store != b.Store || len(a.Addrs) != len(b.Addrs) {
		return false
	}
	for i := range a.Addrs {
		if a.Addrs[i] != b.Addrs[i] {
			return false
		}
	}
	return true
}
