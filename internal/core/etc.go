package core

import (
	"uvmsim/internal/config"
	"uvmsim/internal/gpu"
	"uvmsim/internal/metrics"
	"uvmsim/internal/sim"
)

// etcController models the ETC framework's components for irregular
// workloads (Li et al., ASPLOS'19), as the paper configures them in its
// comparison (Section 5.2):
//
//   - Memory-aware throttling (MT): half the SMs are disabled at the start;
//     the controller then alternates detection epochs, measuring the page
//     fault rate, and toggles throttling when the rate regresses.
//   - Capacity compression (CC): applied at machine construction (extra
//     effective capacity + per-DRAM-access decompression latency).
//   - Proactive eviction (PE): the paper's authors disable PE for irregular
//     applications because its timing prediction fails there; we replicate
//     that default but keep the mechanism for ablation
//     (ETCProactiveEviction).
type etcController struct {
	eng     *sim.Engine
	cfg     *config.Config
	stats   *metrics.Stats
	cluster *gpu.Cluster
	rt      *Runtime

	// faults supplies the cumulative fault count the detection epochs
	// difference. It defaults to the cluster's hub-side fault counter,
	// which sees each fault one hop after the shard raised it; tests
	// substitute their own source.
	faults func() uint64

	throttled  bool
	lastFaults uint64
	prevRate   float64
	haveRate   bool
	stopped    bool
}

func newETCController(eng *sim.Engine, cfg *config.Config, stats *metrics.Stats, cluster *gpu.Cluster, rt *Runtime) *etcController {
	return &etcController{eng: eng, cfg: cfg, stats: stats, cluster: cluster, rt: rt, faults: cluster.FaultsSeen}
}

func (e *etcController) start() {
	// MT statically throttles half of the SMs in the beginning (paper
	// footnote 8).
	e.setThrottle(true)
	var tick func()
	tick = func() {
		if e.stopped {
			return
		}
		e.epoch()
		e.eng.After(e.cfg.UVM.ETCEpochCycles, tick)
	}
	e.eng.After(e.cfg.UVM.ETCEpochCycles, tick)
}

func (e *etcController) stop() {
	e.stopped = true
	// Leave the GPU fully enabled so trailing work can drain.
	e.setThrottle(false)
}

// epoch closes a detection epoch: if the fault rate regressed versus the
// previous epoch, flip the throttling decision.
func (e *etcController) epoch() {
	faults := e.faults()
	rate := float64(faults - e.lastFaults)
	e.lastFaults = faults

	// Proactive eviction (when enabled for ablation): if memory is at
	// capacity, evict ahead of demand at epoch boundaries.
	if e.cfg.UVM.ETCProactiveEviction {
		e.proactiveEvict()
	}

	switch {
	case rate == 0 && e.throttled:
		// No paging pressure: throttling has nothing to manage, and any
		// blocks resident on throttled SMs must be allowed to finish.
		e.setThrottle(false)
	case e.haveRate && rate > e.prevRate*1.05:
		e.setThrottle(!e.throttled)
	}
	e.prevRate = rate
	e.haveRate = true
}

func (e *etcController) setThrottle(on bool) {
	e.throttled = on
	n := e.cluster.NumSMs()
	off := 0
	if on {
		off = int(float64(n) * e.cfg.UVM.ETCThrottleFraction)
	}
	for i := 0; i < n; i++ {
		e.cluster.SetSMEnabled(i, i >= off)
	}
}

// proactiveEvict evicts a few LRU pages ahead of demand. For irregular
// workloads this guesses timing wrong most of the time — which is exactly
// why the paper (and ETC's authors) disable it there.
func (e *etcController) proactiveEvict() {
	const pagesPerEpoch = 4
	if !e.rt.alloc.Full() {
		return
	}
	evict := e.cfg.PageTransferCycles()
	now := e.eng.Now()
	for i := 0; i < pagesPerEpoch; i++ {
		victim, ok := e.rt.alloc.PeekVictim()
		if !ok {
			return
		}
		life, _ := e.rt.alloc.AllocTime(victim)
		e.rt.alloc.PopVictim()
		st := max64(e.rt.outFree, now)
		at := st + evict + e.cfg.UVM.DMASetupCycles + ptUpdateCycles
		e.rt.outFree = at
		e.rt.scheduleEviction(victim, life, at)
	}
}
