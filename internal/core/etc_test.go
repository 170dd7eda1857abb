package core

import (
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/gpu"
	"uvmsim/internal/metrics"
	"uvmsim/internal/sim"
	"uvmsim/internal/vm"
)

// etcRig assembles an ETC controller over a real cluster (no workload),
// with the controller and the runtime on the hub domain's engine.
func etcRig() (*etcController, *gpu.Cluster, *sim.System, *metrics.Stats) {
	cfg := config.Default()
	cfg.Policy = config.ETC
	sys := sim.NewSystem(cfg.DomainCount() + 1)
	eng := sys.Engine(cfg.DomainCount())
	stats := &metrics.Stats{}
	pt := vm.NewPageTable()
	rt := NewRuntime(eng, &cfg, stats, pt, 64, func(uint64) bool { return true })
	cluster := gpu.New(sys, &cfg, stats, pt, rt)
	rt.AttachCluster(cluster)
	e := newETCController(eng, &cfg, stats, cluster, rt)
	return e, cluster, sys, stats
}

func TestETCThrottlesHalfAtStart(t *testing.T) {
	e, cluster, sys, _ := etcRig()
	e.start()
	if got := cluster.EnabledSMs(); got != 8 {
		t.Fatalf("enabled SMs after start = %d, want 8 (half of 16)", got)
	}
	e.stop()
	sys.Run()
	if got := cluster.EnabledSMs(); got != 16 {
		t.Fatalf("enabled SMs after stop = %d, want 16", got)
	}
}

func TestETCUnthrottlesWhenFaultsStop(t *testing.T) {
	e, cluster, _, stats := etcRig()
	e.faults = func() uint64 { return stats.FaultsRaised }
	e.setThrottle(true)
	// One epoch with faults (rate > 0), then an epoch with none.
	stats.FaultsRaised = 100
	e.epoch()
	if cluster.EnabledSMs() != 8 {
		t.Fatalf("throttling dropped while faults were flowing: %d SMs", cluster.EnabledSMs())
	}
	e.epoch() // no new faults: rate 0 -> unthrottle for liveness
	if cluster.EnabledSMs() != 16 {
		t.Fatalf("zero fault rate did not unthrottle: %d SMs", cluster.EnabledSMs())
	}
}

func TestETCTogglesOnRegression(t *testing.T) {
	e, cluster, _, stats := etcRig()
	e.faults = func() uint64 { return stats.FaultsRaised }
	e.setThrottle(true)
	stats.FaultsRaised = 100
	e.epoch() // rate 100, first measurement
	stats.FaultsRaised = 220
	e.epoch() // rate 120 > 105: regression -> toggle (unthrottle)
	if cluster.EnabledSMs() != 16 {
		t.Fatalf("regression did not toggle throttling: %d SMs", cluster.EnabledSMs())
	}
	stats.FaultsRaised = 400
	e.epoch() // rate 180 > 126: regression again -> throttle back
	if cluster.EnabledSMs() != 8 {
		t.Fatalf("second regression did not toggle back: %d SMs", cluster.EnabledSMs())
	}
}

func TestETCProactiveEvictionAblation(t *testing.T) {
	e, _, sys, stats := etcRig()
	e.cfg.UVM.ETCProactiveEviction = true
	e.faults = func() uint64 { return stats.FaultsRaised }
	// Fill memory to capacity so PE has victims.
	for i := 0; i < 64; i++ {
		e.rt.alloc.Add(uint64(i), 0)
		e.rt.pt.Map(uint64(i))
	}
	stats.FaultsRaised = 10
	e.epoch()
	sys.Run()
	if stats.Evictions == 0 {
		t.Fatal("proactive eviction evicted nothing at capacity")
	}
	if e.rt.alloc.Len() == 64 {
		t.Fatal("allocator still full after proactive eviction")
	}
}
