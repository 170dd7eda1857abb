package gpu

import (
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/trace"
)

// countingSink records faults without servicing them immediately.
type countingSink struct {
	rig    *testRig
	faults map[uint64]int
	delay  uint64
}

func (s *countingSink) RaiseFault(page uint64) {
	if s.faults == nil {
		s.faults = make(map[uint64]int)
	}
	s.faults[page]++
	if s.faults[page] == 1 {
		s.rig.eng.After(s.delay, func() {
			s.rig.pt.Map(page)
			s.rig.c.PageArrived(page)
		})
	}
}

func TestRunaheadRaisesSpeculativeFaults(t *testing.T) {
	run := func(depth int) (map[uint64]int, uint64) {
		r := newRig(func(c *config.Config) {
			c.GPU.NumSMs = 1
			c.UVM.RunaheadDepth = depth
		})
		sink := &countingSink{rig: r, delay: 30000}
		c := r.build(sink)
		// One warp touching 4 distinct pages in sequence.
		var accs []trace.Access
		for i := 0; i < 4; i++ {
			accs = append(accs, trace.Access{
				ComputeCycles: 2,
				Addrs:         []uint64{0x1_0000_0000 + uint64(i)*64<<10},
			})
		}
		k := warpKernel("ra", accs)
		c.Launch(k, func() {})
		// Stop at the first fault service: what got raised by then?
		r.sys.RunUntil(29999)
		raised := make(map[uint64]int, len(sink.faults))
		for p, n := range sink.faults {
			raised[p] = n
		}
		r.sys.Run()
		return raised, r.stats.RunaheadFaults
	}

	noRA, ra0 := run(0)
	if len(noRA) != 1 {
		t.Fatalf("without runahead, %d pages faulted before first service, want 1", len(noRA))
	}
	if ra0 != 0 {
		t.Fatalf("runahead faults counted with depth 0: %d", ra0)
	}

	withRA, raN := run(3)
	if len(withRA) != 4 {
		t.Fatalf("with runahead depth 3, %d pages raised before first service, want 4", len(withRA))
	}
	if raN == 0 {
		t.Fatal("no runahead faults counted")
	}
}

func TestRunaheadSkipsResidentPages(t *testing.T) {
	r := newRig(func(c *config.Config) {
		c.GPU.NumSMs = 1
		c.UVM.RunaheadDepth = 8
	})
	sink := &countingSink{rig: r, delay: 5000}
	c := r.build(sink)
	// Page 1 resident; page 0 and 2 not.
	r.pt.Map(0x1_0001_0000 / (64 << 10))
	k := warpKernel("ra2", []trace.Access{
		{Addrs: []uint64{0x1_0000_0000}},
		{Addrs: []uint64{0x1_0001_0000}}, // resident
		{Addrs: []uint64{0x1_0002_0000}},
	})
	done := false
	c.Launch(k, func() { done = true })
	r.sys.Run()
	if !done {
		t.Fatal("kernel did not complete")
	}
	if n := sink.faults[0x1_0001_0000/(64<<10)]; n != 0 {
		t.Fatalf("runahead raised a fault for a resident page %d times", n)
	}
}
