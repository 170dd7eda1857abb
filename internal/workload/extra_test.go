package workload

import (
	"testing"

	"uvmsim/internal/trace"
)

func TestExtensionWorkloadsBuild(t *testing.T) {
	p := smallParams()
	for _, name := range Extensions {
		w, err := Build(name, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(w.Kernels) == 0 {
			t.Fatalf("%s: no kernels", name)
		}
		if !w.Irregular {
			t.Errorf("%s not marked irregular", name)
		}
	}
}

// drainTraffic counts total lane accesses and stores of one workload.
func drainTraffic(t *testing.T, w *trace.Workload) (lanes, stores int) {
	t.Helper()
	for _, k := range w.Kernels {
		for blk := 0; blk < k.Blocks; blk++ {
			for wp := 0; wp < k.WarpsPerBlock(32); wp++ {
				st := k.Stream(blk, wp)
				for {
					acc, ok := st.Next()
					if !ok {
						break
					}
					lanes += len(acc.Addrs)
					if acc.Store {
						stores++
					}
				}
			}
		}
	}
	return lanes, stores
}

func TestDCTrafficScalesWithEdges(t *testing.T) {
	p := smallParams()
	p.Vertices = 512
	w, err := Build("DC", p)
	if err != nil {
		t.Fatal(err)
	}
	lanes, stores := drainTraffic(t, w)
	// DC does ~2 ops per vertex + 2 per edge: traffic must exceed 2E.
	minLanes := 2 * p.Vertices * p.AvgDegree
	if lanes < minLanes {
		t.Fatalf("DC traffic %d below edge-proportional floor %d", lanes, minLanes)
	}
	if stores == 0 {
		t.Fatal("DC produced no stores (atomic increments missing)")
	}
}

func TestCCRoundsMatchAlgorithm(t *testing.T) {
	p := smallParams()
	p.Vertices = 512
	w, err := Build("CC", p)
	if err != nil {
		t.Fatal(err)
	}
	// Every CC kernel is a full sweep; at least one store in rounds that
	// changed labels.
	for i, k := range w.Kernels {
		_, stores := drainTraffic(t, &trace.Workload{Space: w.Space, Kernels: []trace.Kernel{k}})
		if stores == 0 {
			t.Fatalf("CC round %d has no label stores", i)
		}
	}
}

func TestSSSPTouchesWeights(t *testing.T) {
	// The weighted workload must actually read its weights array —
	// regression guard for the layout wiring.
	p := smallParams()
	p.Vertices = 256
	w, err := Build("SSSP-TWC", p)
	if err != nil {
		t.Fatal(err)
	}
	var weights *struct{ lo, hi uint64 }
	for _, arr := range w.Space.Arrays() {
		if arr.Name == "weights" {
			weights = &struct{ lo, hi uint64 }{arr.Base, arr.End()}
		}
	}
	if weights == nil {
		t.Fatal("SSSP has no weights array")
	}
	touched := false
	for _, k := range w.Kernels {
		for blk := 0; blk < k.Blocks && !touched; blk++ {
			for wp := 0; wp < k.WarpsPerBlock(32) && !touched; wp++ {
				st := k.Stream(blk, wp)
				for {
					acc, ok := st.Next()
					if !ok {
						break
					}
					for _, a := range acc.Addrs {
						if a >= weights.lo && a < weights.hi {
							touched = true
						}
					}
				}
			}
		}
	}
	if !touched {
		t.Fatal("SSSP never reads its weights array")
	}
}

func TestGCRoundCapBoundsKernels(t *testing.T) {
	p := smallParams()
	for _, name := range []string{"GC-TTC", "GC-DTC"} {
		w, err := Build(name, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(w.Kernels) > maxGCRounds {
			t.Fatalf("%s has %d kernels, cap is %d", name, len(w.Kernels), maxGCRounds)
		}
	}
}

func TestBCKernelCountMatchesSourcesAndLevels(t *testing.T) {
	p := smallParams()
	p.Vertices = 512
	p.BCSources = 3
	w, err := Build("BC", p)
	if err != nil {
		t.Fatal(err)
	}
	// Each source contributes a forward and a backward kernel per level:
	// the total must be even and at least 2 per source.
	if len(w.Kernels)%2 != 0 {
		t.Fatalf("BC kernel count %d not even (fwd/bwd pairs)", len(w.Kernels))
	}
	if len(w.Kernels) < 2*p.BCSources {
		t.Fatalf("BC kernel count %d below 2 x %d sources", len(w.Kernels), p.BCSources)
	}
}
