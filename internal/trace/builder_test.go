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
	accessesEqual(t, "lockstep", want, replay(mustCompile(t, &Workload{Kernels: []Kernel{k}}, 32)))
}
