package trace

import "testing"

func TestLockstepMergesLanes(t *testing.T) {
	k := Kernel{Name: "k", Blocks: 1, ThreadsPerBlock: 32, Emit: func(b *Builder, block, warp int) {
		b.Load(1)
		b.Load(2)
		b.Load(3)
		b.EndLane()
		b.Load(10)
		b.EndLane()
		b.EndLane() // inactive lane
		b.Load(20)
		b.Store(21)
		b.EndLane()
		b.Lockstep(5)
		// A second merge in the same warp appends after the first.
		b.Store(30)
		b.EndLane()
		b.Lockstep(7)
	}}
	want := []Access{
		{ComputeCycles: 5, Addrs: []uint64{1, 10, 20}},
		{ComputeCycles: 5, Addrs: []uint64{2, 21}, Store: true},
		{ComputeCycles: 5, Addrs: []uint64{3}},
		{ComputeCycles: 7, Addrs: []uint64{30}, Store: true},
	}
	accessesEqual(t, "lockstep", want, DrainWarp(k, 0, 0, nil))
}

// TestKernelStreamEmitsLive pins live replay of a kernel that has only
// Emit: Kernel.Stream emits each warp into a one-warp Builder, and the
// accesses must match the reference streams warp for warp.
func TestKernelStreamEmitsLive(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		w := randomWorkload(seed)
		emitOnly := *w
		emitOnly.Kernels = append([]Kernel(nil), w.Kernels...)
		for i := range emitOnly.Kernels {
			emitOnly.Kernels[i].NewWarpStream = nil
		}
		accessesEqual(t, "emitted", drainAll(w), drainAll(&emitOnly))
	}
}
