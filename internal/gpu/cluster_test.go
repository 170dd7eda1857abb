package gpu

import (
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/metrics"
	"uvmsim/internal/sim"
	"uvmsim/internal/trace"
	"uvmsim/internal/vm"
)

// testRig bundles a cluster with everything it needs. eng is the hub
// domain's engine: sink callbacks and test events scheduled on it run
// hub-side, which is where the UVM runtime lives in the real machine.
type testRig struct {
	sys   *sim.System
	eng   *sim.Engine
	cfg   config.Config
	stats metrics.Stats
	pt    *vm.PageTable
	c     *Cluster
}

// immediateSink maps a faulted page after a fixed delay and notifies the
// cluster — a minimal stand-in for the UVM runtime.
type immediateSink struct {
	rig    *testRig
	delay  uint64
	faults []uint64
}

func (s *immediateSink) RaiseFault(page uint64) {
	s.faults = append(s.faults, page)
	s.rig.eng.After(s.delay, func() {
		s.rig.pt.Map(page)
		s.rig.c.PageArrived(page)
	})
}

func newRig(mutate func(*config.Config)) *testRig {
	r := &testRig{cfg: config.Default(), pt: vm.NewPageTable()}
	if mutate != nil {
		mutate(&r.cfg)
	}
	r.sys = sim.NewSystem(r.cfg.DomainCount() + 1)
	r.eng = r.sys.Engine(r.cfg.DomainCount())
	return r
}

func (r *testRig) build(sink FaultSink) *Cluster {
	r.c = New(r.sys, &r.cfg, &r.stats, r.pt, sink)
	return r.c
}

// compileKernel compiles the one-kernel workload k at the default warp
// size: the form a Cluster launches.
func compileKernel(k trace.Kernel) *trace.CompiledKernel {
	c, err := trace.Compile(&trace.Workload{Name: k.Name, Kernels: []trace.Kernel{k}}, config.Default().GPU.WarpSize)
	if err != nil {
		panic(err)
	}
	return &c.Kernels()[0]
}

// simpleKernel builds a kernel where each warp performs nAccesses strided
// loads starting at a per-warp base address.
func simpleKernel(blocks, threadsPerBlock, regs, nAccesses int, stride uint64) *trace.CompiledKernel {
	return compileKernel(trace.Kernel{
		Name:            "simple",
		Blocks:          blocks,
		ThreadsPerBlock: threadsPerBlock,
		RegsPerThread:   regs,
		Emit: func(b *trace.Builder, block, warp int) {
			base := uint64(0x1_0000_0000) + uint64(block*1024+warp)*stride*uint64(nAccesses)
			for i := 0; i < nAccesses; i++ {
				b.Addr(base + uint64(i)*stride)
				b.EndAccess(2, false)
			}
		},
	})
}

// warpKernel builds a one-block, one-warp kernel that performs accs.
func warpKernel(name string, accs []trace.Access) *trace.CompiledKernel {
	return compileKernel(trace.Kernel{
		Name: name, Blocks: 1, ThreadsPerBlock: 32, RegsPerThread: 16,
		Emit: func(b *trace.Builder, block, warp int) {
			for _, a := range accs {
				for _, addr := range a.Addrs {
					b.Addr(addr)
				}
				b.EndAccess(a.ComputeCycles, a.Store)
			}
		},
	})
}

// mapAll makes every page the kernel touches resident.
func mapAll(r *testRig, k *trace.CompiledKernel) {
	for b := 0; b < k.Blocks; b++ {
		for p := range trace.PagesTouched(k, b, r.cfg.UVM.PageBytes) {
			r.pt.Map(p)
		}
	}
}

func TestKernelCompletesWithResidentPages(t *testing.T) {
	r := newRig(nil)
	c := r.build(nil)
	k := simpleKernel(8, 256, 16, 10, 128)
	mapAll(r, k)
	done := false
	c.Launch(k, func() { done = true })
	r.sys.Run()
	if !done {
		t.Fatal("kernel did not complete")
	}
	if r.stats.Instrs == 0 {
		t.Fatal("no instructions counted")
	}
	if r.stats.FaultsRaised != 0 {
		t.Fatalf("faults raised with all pages resident: %d", r.stats.FaultsRaised)
	}
}

func TestZeroBlockKernelCompletes(t *testing.T) {
	r := newRig(nil)
	c := r.build(nil)
	k := simpleKernel(0, 256, 16, 1, 128)
	done := false
	c.Launch(k, func() { done = true })
	r.sys.Run()
	if !done {
		t.Fatal("zero-block kernel did not complete")
	}
}

func TestFaultsRaisedAndServiced(t *testing.T) {
	r := newRig(nil)
	sink := &immediateSink{rig: r, delay: 5000}
	c := r.build(sink)
	k := simpleKernel(4, 256, 16, 5, 64<<10) // stride a page: every access faults
	done := false
	c.Launch(k, func() { done = true })
	r.sys.Run()
	if !done {
		t.Fatal("kernel did not complete after fault servicing")
	}
	if len(sink.faults) == 0 {
		t.Fatal("no faults raised")
	}
	if c.WaitingWarps() != 0 {
		t.Fatalf("%d warps still waiting after completion", c.WaitingWarps())
	}
}

func TestSchedulableBlocksLimits(t *testing.T) {
	r := newRig(nil)
	c := r.build(nil)
	// 1024 threads/SM, 65536 regs/SM.
	cases := []struct {
		threads, regs, want int
	}{
		{1024, 16, 1},  // thread-limited: one 1024-thread block
		{256, 16, 4},   // 4 blocks by threads, 16 by regs -> 4
		{256, 64, 4},   // regs: 65536/(256*64)=4 -> still 4
		{128, 128, 4},  // regs: 65536/(128*128)=4
		{128, 255, 2},  // regs: 65536/32640=2
		{1024, 255, 1}, // would be 0 by regs; clamped to 1
	}
	for _, tc := range cases {
		k := &trace.CompiledKernel{Blocks: 1, ThreadsPerBlock: tc.threads, RegsPerThread: tc.regs}
		if got := c.SchedulableBlocks(k); got != tc.want {
			t.Errorf("SchedulableBlocks(threads=%d, regs=%d) = %d, want %d",
				tc.threads, tc.regs, got, tc.want)
		}
	}
}

func TestContextSwitchCost(t *testing.T) {
	r := newRig(nil)
	c := r.build(nil)
	k := &trace.CompiledKernel{ThreadsPerBlock: 1024, RegsPerThread: 16}
	// ctx = 1024*16*4 + 5KB = 70656B; save+restore at 128B/cyc = 1104.
	if got := c.contextSwitchCycles(k); got != 1104 {
		t.Fatalf("switch cost = %d cycles, want 1104", got)
	}
}

func TestOversubscriptionSwitchesBlocks(t *testing.T) {
	// One SM, one active slot; two blocks; every block faults on its own
	// pages with slow servicing. With oversubscription, block 2's faults
	// should be raised while block 1 is still waiting — batching them.
	r := newRig(func(c *config.Config) {
		c.GPU.NumSMs = 1
	})
	sink := &immediateSink{rig: r, delay: 50000}
	c := r.build(sink)
	c.SetOversubscription(1)
	k := simpleKernel(2, 1024, 16, 3, 64<<10)
	done := false
	c.Launch(k, func() { done = true })
	// Run until the first fault service completes (50000 cycles): by then
	// the context switch must have let block 2 raise faults too.
	r.sys.RunUntil(49999)
	if r.stats.ContextSwitches == 0 {
		t.Fatal("no context switch with an oversubscribed stalled block")
	}
	blocksSeen := map[uint64]bool{}
	for _, p := range sink.faults {
		blocksSeen[p>>8] = true // crude block separation via address range
	}
	if len(sink.faults) < 2 {
		t.Fatalf("only %d faults raised before first service", len(sink.faults))
	}
	r.sys.Run()
	if !done {
		t.Fatal("kernel did not complete")
	}
}

func TestNoSwitchWithoutOversubscription(t *testing.T) {
	r := newRig(func(c *config.Config) { c.GPU.NumSMs = 1 })
	sink := &immediateSink{rig: r, delay: 20000}
	c := r.build(sink)
	k := simpleKernel(2, 1024, 16, 3, 64<<10)
	done := false
	c.Launch(k, func() { done = true })
	r.sys.Run()
	if !done {
		t.Fatal("kernel did not complete")
	}
	if r.stats.ContextSwitches != 0 {
		t.Fatalf("baseline performed %d context switches", r.stats.ContextSwitches)
	}
}

func TestTraditionalSwitchingDegradesPerformance(t *testing.T) {
	run := func(traditional bool) uint64 {
		r := newRig(func(c *config.Config) { c.GPU.NumSMs = 2 })
		c := r.build(nil)
		k := simpleKernel(8, 1024, 16, 40, 256)
		mapAll(r, k)
		if traditional {
			c.SetTraditionalSwitching(true)
			c.SetOversubscription(1)
		}
		c.Launch(k, func() {})
		return r.sys.Run()
	}
	base := run(false)
	trad := run(true)
	if trad <= base {
		t.Fatalf("traditional switching (%d cycles) not slower than baseline (%d)", trad, base)
	}
}

func TestSMThrottlingPausesAndResumes(t *testing.T) {
	r := newRig(func(c *config.Config) { c.GPU.NumSMs = 2 })
	c := r.build(nil)
	k := simpleKernel(4, 1024, 16, 50, 128)
	mapAll(r, k)
	done := false
	c.Launch(k, func() { done = true })
	c.SetSMEnabled(1, false)
	if c.EnabledSMs() != 1 {
		t.Fatalf("EnabledSMs = %d, want 1", c.EnabledSMs())
	}
	// Re-enable partway through.
	r.eng.Schedule(2000, func() { c.SetSMEnabled(1, true) })
	r.sys.Run()
	if !done {
		t.Fatal("kernel did not complete after re-enabling SM")
	}
}

// TestSMEnableReachesItsShard: on 9 SMs in shards of 4, 4 and 1, disabling
// and re-enabling each SM changes that SM and no other.
func TestSMEnableReachesItsShard(t *testing.T) {
	r := newRig(func(c *config.Config) {
		c.GPU.NumSMs = 9
		c.GPU.SMsPerDomain = 4
	})
	c := r.build(nil)
	if len(c.shards) != 3 || len(c.shards[2].sms) != 1 {
		t.Fatalf("shards hold %d, %d, ... SMs; want 4, 4, 1", len(c.shards[0].sms), len(c.shards[1].sms))
	}
	check := func(off int) {
		t.Helper()
		for _, sh := range c.shards {
			for _, sm := range sh.sms {
				if sm.enabled != (sm.id != off) {
					t.Fatalf("with SM %d disabled, SM %d enabled = %v", off, sm.id, sm.enabled)
				}
			}
		}
	}
	for id := 0; id < 9; id++ {
		c.SetSMEnabled(id, false)
		r.sys.Run()
		check(id)
		c.SetSMEnabled(id, true)
		r.sys.Run()
		check(-1)
	}
}

func TestInvalidatePageShootsDownTLBs(t *testing.T) {
	r := newRig(nil)
	c := r.build(nil)
	k := simpleKernel(1, 256, 16, 4, 128)
	mapAll(r, k)
	c.Launch(k, func() {})
	r.sys.Run()
	// After the run some page is cached in the TLBs; evict it everywhere.
	page := uint64(0x1_0000_0000) / r.cfg.UVM.PageBytes
	c.InvalidatePage(page)
	r.sys.Run() // deliver the shootdown broadcast to the shards
	for _, sh := range c.shards {
		for _, sm := range sh.sms {
			if sm.l1tlb.Invalidate(page) {
				t.Fatal("L1 TLB still held evicted page after shootdown")
			}
		}
	}
	if c.l2tlb.Invalidate(page) {
		t.Fatal("L2 TLB still held evicted page after shootdown")
	}
}

func TestLaunchWhileRunningPanics(t *testing.T) {
	r := newRig(nil)
	c := r.build(nil)
	k := simpleKernel(2, 256, 16, 3, 128)
	mapAll(r, k)
	c.Launch(k, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("second Launch did not panic")
		}
	}()
	c.Launch(k, nil)
}

func TestMultiPageAccessFaultsOnAllPages(t *testing.T) {
	// A single warp instruction touching two non-resident pages must wait
	// for both.
	r := newRig(func(c *config.Config) { c.GPU.NumSMs = 1 })
	sink := &immediateSink{rig: r, delay: 10000}
	c := r.build(sink)
	k := warpKernel("two-page", []trace.Access{
		{Addrs: []uint64{0x1_0000_0000, 0x1_0001_0000}},
	})
	done := false
	c.Launch(k, func() { done = true })
	r.sys.Run()
	if !done {
		t.Fatal("kernel did not complete")
	}
	if len(sink.faults) != 2 {
		t.Fatalf("raised %d faults, want 2", len(sink.faults))
	}
}

func TestSwitchCooldownLimitsRate(t *testing.T) {
	// In traditional (stall-triggered) mode, switches must be separated by
	// at least the switch cost: a block re-stalling immediately after a
	// switch cannot trigger another one inside the cooldown window.
	r := newRig(func(c *config.Config) { c.GPU.NumSMs = 1 })
	c := r.build(nil)
	k := simpleKernel(4, 1024, 16, 60, 256)
	mapAll(r, k)
	c.SetTraditionalSwitching(true)
	c.SetOversubscription(1)
	done := false
	c.Launch(k, func() { done = true })
	total := r.sys.Run()
	if !done {
		t.Fatal("kernel did not complete")
	}
	if r.stats.ContextSwitches == 0 {
		t.Fatal("no switches in traditional mode")
	}
	// Upper bound: one switch per (switch cost) of wall time would mean
	// zero useful work; the cooldown guarantees strictly fewer.
	cost := c.contextSwitchCycles(k)
	maxSwitches := total / cost
	if r.stats.ContextSwitches >= maxSwitches {
		t.Fatalf("%d switches in %d cycles (cost %d): cooldown not applied",
			r.stats.ContextSwitches, total, cost)
	}
}

func TestOversubscriptionDegreeZeroAfterReduce(t *testing.T) {
	r := newRig(func(c *config.Config) { c.GPU.NumSMs = 1 })
	sink := &immediateSink{rig: r, delay: 20000}
	c := r.build(sink)
	c.SetOversubscription(1)
	c.SetOversubscription(-5) // clamped to 0
	if c.Oversubscription() != 0 {
		t.Fatalf("degree = %d, want 0", c.Oversubscription())
	}
	k := simpleKernel(2, 1024, 16, 3, 64<<10)
	done := false
	c.Launch(k, func() { done = true })
	r.sys.Run()
	if !done {
		t.Fatal("kernel did not complete with degree clamped to 0")
	}
}

func TestDRAMContentionSlowsMemoryBoundKernels(t *testing.T) {
	run := func(bw uint64) uint64 {
		r := newRig(func(c *config.Config) {
			c.GPU.NumSMs = 4
			c.GPU.DRAMBytesPerCycle = bw
		})
		c := r.build(nil)
		// Strided loads that miss L1/L2 constantly.
		k := simpleKernel(16, 1024, 16, 30, 4096)
		mapAll(r, k)
		c.Launch(k, func() {})
		return r.sys.Run()
	}
	uncontended := run(0)
	contended := run(8) // 8 B/cycle: a 128B line occupies 16 cycles
	if contended <= uncontended {
		t.Fatalf("DRAM contention (%d cycles) not slower than fixed latency (%d)",
			contended, uncontended)
	}
}

func TestDRAMModelOffByDefault(t *testing.T) {
	r := newRig(nil)
	c := r.build(nil)
	if d := c.dramQueueDelay(); d != 0 {
		t.Fatalf("default config charged DRAM queue delay %d", d)
	}
	if c.dramFreeAt != 0 {
		t.Fatal("default config advanced the DRAM channel clock")
	}
}

func TestIssueBandwidthSerializesBursts(t *testing.T) {
	run := func(slots int) uint64 {
		r := newRig(func(c *config.Config) {
			c.GPU.NumSMs = 1
			c.GPU.IssueSlotsPerCycle = slots
		})
		c := r.build(nil)
		k := simpleKernel(1, 1024, 16, 30, 128)
		mapAll(r, k)
		c.Launch(k, func() {})
		return r.sys.Run()
	}
	free := run(0)
	constrained := run(1) // 1 instr/cycle: 32 warps serialize their issues
	if constrained <= free {
		t.Fatalf("issue constraint (%d cycles) not slower than unconstrained (%d)",
			constrained, free)
	}
}
