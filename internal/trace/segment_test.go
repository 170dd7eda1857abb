package trace

import (
	"bytes"
	"testing"
)

// bigWarpWorkload adds a kernel with one warp, block 1's first, far
// larger than the others, so that a small segment size gives it a
// segment of its own.
func bigWarpWorkload() *testWorkload {
	w := sampleWorkload()
	arr := w.Space.Arrays()[0]
	w.add(Kernel{
		Name:            "big",
		Blocks:          3,
		ThreadsPerBlock: 64,
		RegsPerThread:   24,
	}, func(block, warp int) []Access {
		n := 2
		if block == 1 && warp == 0 {
			n = 200
		}
		accs := make([]Access, n)
		for i := range accs {
			accs[i] = Access{ComputeCycles: uint64(i % 7), Store: i%5 == 0}
			for l := 0; l < 32; l++ {
				accs[i].Addrs = append(accs[i].Addrs, arr.Addr(block*4096+warp*1024+i+l))
			}
		}
		return accs
	})
	return w
}

// TestSegmentedCompileMatchesOneSegment cuts kernels into many segments —
// down to one warp each, and around a warp larger than a segment — and
// checks that cursor replay, the counts and the artifact bytes equal a
// one-segment compile's.
func TestSegmentedCompileMatchesOneSegment(t *testing.T) {
	var workloads []*Workload
	for seed := int64(0); seed < 25; seed++ {
		workloads = append(workloads, randomWorkload(seed).Workload)
	}
	workloads = append(workloads, bigWarpWorkload().Workload)
	for i, w := range workloads {
		ref, err := Compile(w, 32)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range ref.Kernels() {
			if len(k.segs) != 1 {
				t.Fatalf("workload %d: reference kernel %q has %d segments, want 1", i, k.Name, len(k.segs))
			}
		}
		for _, segBytes := range []int{1, 64, 300, 4096} {
			c, err := compile(w, 32, segBytes)
			if err != nil {
				t.Fatal(err)
			}
			checkSegments(t, c, segBytes)
			compiledEqual(t, ref, c)
		}
	}
}

// checkSegments checks how compile cut c: the segments cover every warp
// in order; a segment of more than one warp was under segBytes before
// its last warp, and that warp alone is under segBytes too, or it would
// have a segment of its own; and a segment under segBytes is its
// kernel's last or comes just before such a warp.
func checkSegments(t *testing.T, c *Compiled, segBytes int) {
	t.Helper()
	for _, k := range c.Kernels() {
		nWarps := int32(len(k.warpOff) - 1)
		if nWarps == 0 {
			continue
		}
		if len(k.segs) == 0 || k.segs[0].warp0 != 0 {
			t.Fatalf("kernel %q: segments do not start at warp 0", k.Name)
		}
		// end(j) is the warp after segment j; size(j, from, to) is the
		// bytes of its warps [from, to).
		end := func(j int) int32 {
			if j+1 < len(k.segs) {
				return k.segs[j+1].warp0
			}
			return nWarps
		}
		size := func(j int, from, to int32) int {
			s := &k.segs[j]
			base := k.warpOff[s.warp0]
			i, e := k.warpOff[from]-base, k.warpOff[to]-base
			return 13*int(e-i) + 8*int(s.laneOff[e]-s.laneOff[i])
		}
		for j, s := range k.segs {
			w0, w1 := s.warp0, end(j)
			if w1 <= w0 {
				t.Fatalf("kernel %q: segment %d holds no warp", k.Name, j)
			}
			if n := int(k.warpOff[w1] - k.warpOff[w0]); n != len(s.compute) || n != len(s.store) || n+1 != len(s.laneOff) {
				t.Fatalf("kernel %q: segment %d holds %d accesses, arrays %d/%d/%d", k.Name, j, n, len(s.compute), len(s.store), len(s.laneOff))
			}
			if int(s.laneOff[len(s.compute)]-s.laneOff[0]) != len(s.addrs) {
				t.Fatalf("kernel %q: segment %d lane offsets disagree with its %d addresses", k.Name, j, len(s.addrs))
			}
			if w1-w0 > 1 && (size(j, w0, w1-1) >= segBytes || size(j, w1-1, w1) >= segBytes) {
				t.Fatalf("kernel %q: segment %d should have been cut before its last warp", k.Name, j)
			}
			if j+1 < len(k.segs) && size(j, w0, w1) < segBytes && (end(j+1)-w1 != 1 || size(j+1, w1, w1+1) < segBytes) {
				t.Fatalf("kernel %q: segment %d cut under %d bytes before no big warp", k.Name, j, segBytes)
			}
		}
	}
}

// compiledEqual checks that c replays, counts and encodes exactly as ref.
func compiledEqual(t *testing.T, ref, c *Compiled) {
	t.Helper()
	if ref.Accesses() != c.Accesses() || ref.AddrWords() != c.AddrWords() || ref.ArtifactBytes() != c.ArtifactBytes() {
		t.Fatalf("counts: accesses %d/%d, addr words %d/%d, artifact bytes %d/%d",
			c.Accesses(), ref.Accesses(), c.AddrWords(), ref.AddrWords(), c.ArtifactBytes(), ref.ArtifactBytes())
	}
	for ki, k := range c.Kernels() {
		rk := ref.Kernels()[ki]
		for blk := 0; blk < k.Blocks; blk++ {
			for wp := 0; wp < k.warpsPerBlock; wp++ {
				cursorsEqual(t, rk.Stream(blk, wp), k.Stream(blk, wp))
			}
		}
	}
	if !bytes.Equal(artifactBytes(t, ref, "k"), artifactBytes(t, c, "k")) {
		t.Fatal("artifact bytes differ from the one-segment compile's")
	}
}

// cursorsEqual walks two cursors in step, peeking every remaining access
// before each Next.
func cursorsEqual(t *testing.T, want, got Cursor) {
	t.Helper()
	if want.Remaining() != got.Remaining() {
		t.Fatalf("cursor holds %d accesses, want %d", got.Remaining(), want.Remaining())
	}
	for {
		for i := 0; i < want.Remaining(); i++ {
			a, _ := want.PeekAhead(i)
			b, ok := got.PeekAhead(i)
			if !ok {
				t.Fatalf("peek %d failed", i)
			}
			accessesEqual(t, "peek", []Access{a}, []Access{b})
		}
		a, okA := want.Next()
		b, okB := got.Next()
		if okA != okB {
			t.Fatalf("next ok %v, want %v", okB, okA)
		}
		if !okA {
			return
		}
		accessesEqual(t, "next", []Access{a}, []Access{b})
	}
}
