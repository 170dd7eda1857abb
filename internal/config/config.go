// Package config defines the simulated-system configuration (Table 1 of the
// paper) and the knobs for the proposed mechanisms and baselines.
package config

import (
	"fmt"
	"sort"
	"strings"
)

// Policy selects which memory-management mechanism the simulated UVM
// runtime uses. The names follow Figure 11 of the paper.
type Policy int

const (
	// Baseline is demand paging with the state-of-the-art tree prefetcher
	// (Zheng et al.), serialized reactive eviction (Figure 4 semantics).
	Baseline Policy = iota
	// BaselineCompressed is Baseline with PCIe (de)compression, modeled as
	// a transfer-bandwidth multiplier.
	BaselineCompressed
	// TO enables thread oversubscription (Section 4.1).
	TO
	// UE enables unobtrusive eviction (Section 4.2).
	UE
	// TOUE enables both proposed mechanisms.
	TOUE
	// ETC is the eviction-throttling-compression framework of Li et al.
	// (ASPLOS'19), the paper's strongest prior-work comparison point.
	ETC
	// IdealEviction makes evictions free (zero latency), the "ideal
	// eviction" bar of Figure 8.
	IdealEviction
)

var policyNames = map[Policy]string{
	Baseline:           "BASELINE",
	BaselineCompressed: "BASELINE+PCIeC",
	TO:                 "TO",
	UE:                 "UE",
	TOUE:               "TO+UE",
	ETC:                "ETC",
	IdealEviction:      "IDEAL-EVICTION",
}

func (p Policy) String() string {
	if s, ok := policyNames[p]; ok {
		return s
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy maps a policy name — case-insensitively, so both the
// figure labels Policy.String prints ("TO+UE") and the lowercase CLI
// forms ("to+ue") parse — to its value. Used by cmd/uvmsim's -policy
// flag.
func ParsePolicy(s string) (Policy, error) {
	for p, name := range policyNames {
		if strings.EqualFold(s, name) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("config: unknown policy %q (have %s)", s, strings.Join(PolicyNames(), ", "))
}

// PolicyNames lists every policy's canonical name, sorted.
func PolicyNames() []string {
	names := make([]string, 0, len(policyNames))
	for _, n := range policyNames {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// OversubscribesThreads reports whether the policy context-switches in
// extra thread blocks.
func (p Policy) OversubscribesThreads() bool { return p == TO || p == TOUE }

// UnobtrusiveEviction reports whether the policy overlaps evictions with
// migrations.
func (p Policy) UnobtrusiveEviction() bool { return p == UE || p == TOUE }

// GPU holds the core and cache parameters from Table 1.
type GPU struct {
	NumSMs         int // 16
	ClockGHz       float64
	ThreadsPerSM   int    // 1024
	WarpSize       int    // 32, the only width Validate accepts
	RegistersPerSM int    // 256KB of 32-bit registers = 65536
	MaxBlocksPerSM int    // architectural block slots per SM
	SharedMemPerSM uint64 // bytes, for context-switch feasibility checks

	L1Bytes   uint64 // 16KB per SM
	L1Ways    int    // 4
	L2Bytes   uint64 // 2MB total
	L2Ways    int    // 16
	LineBytes uint64 // 128B transactions

	L1TLBEntries int // 64 per SM, fully associative
	L2TLBEntries int // 1024 shared
	L2TLBWays    int // 32

	MemLatency               uint64 // 200 cycles
	L1Latency                uint64
	L2Latency                uint64
	PageWalkers              int    // concurrent page table walks (64)
	PTLevels                 int    // page table levels
	PWCLatency               uint64 // page-walk-cache hit cost per level
	GlobalMemBWBytesPerCycle uint64 // for context save/restore cost

	// IssueSlotsPerCycle, when nonzero, models per-SM instruction issue
	// bandwidth: warp instructions on one SM contend for issue slots, so
	// a fully occupied SM serializes instead of issuing all warps at
	// once. 0 (the default) keeps issue unconstrained, matching the
	// latency-only model used for the recorded experiments.
	IssueSlotsPerCycle int

	// DRAMBytesPerCycle, when nonzero, models DRAM bandwidth contention:
	// every L2 miss occupies the memory channel for line/DRAMBytesPerCycle
	// cycles and queues behind earlier misses. 0 (the default) keeps the
	// paper's fixed-latency memory model.
	DRAMBytesPerCycle uint64

	// SMsPerDomain groups SMs into the event domains of sim.System: each
	// domain (the SMs plus their private L1 caches and TLBs) runs on its
	// own event queue, with the shared spine (L2, page walker, UVM
	// runtime, PCIe) as the hub domain. 0 or negative puts every SM in one
	// domain. The grouping is part of the model: a domain's index ranks
	// its events among same-cycle ties, so changing it can change results.
	SMsPerDomain int
}

// UVM holds the unified-memory parameters from Table 1 plus policy knobs.
type UVM struct {
	PageBytes          uint64  // 64KB
	FaultBufferEntries int     // 1024
	FaultHandlingUS    float64 // GPU runtime fault handling time, 20µs
	PCIeGBps           float64 // 15.75 GB/s
	// OversubscriptionRatio is GPU memory capacity as a fraction of the
	// workload footprint; 0.5 means 50% of the footprint fits (the paper's
	// default "50% memory oversubscription"). 1.0 or more disables
	// eviction pressure.
	OversubscriptionRatio float64
	// MemoryPages overrides the capacity directly when nonzero (in pages);
	// otherwise capacity = ceil(footprint × ratio).
	MemoryPages int

	// DMASetupCycles is the fixed cost of programming one DMA transfer.
	// Contiguous page runs within a batch share one setup, so sorted,
	// dense batches move bytes more efficiently than scattered ones —
	// the efficiency effect behind Figures 3 and 16.
	DMASetupCycles uint64

	// Prefetch enables the tree-based prefetcher.
	Prefetch bool
	// PrefetchBlockPages is the size (in pages) of the VA block within
	// which the density prefetcher operates (2MB / 64KB = 32).
	PrefetchBlockPages int
	// PrefetchThreshold is the resident-density threshold above which the
	// prefetcher fetches the rest of a region.
	PrefetchThreshold float64
	// PrefetchAggressiveness bounds prefetching under memory pressure:
	// with no free frames, a batch may still prefetch up to
	// aggressiveness x (faulted pages), evicting to make room. 0 makes
	// prefetching purely opportunistic; large values reproduce the
	// prefetch-eviction churn prior work reports under oversubscription.
	PrefetchAggressiveness float64

	// CompressionFactor multiplies effective PCIe bandwidth when PCIe
	// compression is enabled (BaselineCompressed, and the CC component of
	// ETC uses CompressionCapacityFactor below).
	CompressionFactor float64

	// TO controls.
	OversubBlocksPerSM int     // extra inactive blocks per SM (starts at 1)
	MaxOversubBlocks   int     // upper bound for the dynamic controller
	LifetimeWindow     uint64  // controller sampling period (100k cycles)
	LifetimeThreshold  float64 // drop fraction that trips the controller (0.20)

	// UE controls.
	PreemptiveEvictions int // pages evicted by the top-half ISR (1)

	// TrackDirty, when set, tracks page dirtiness: evicting a page that
	// was never written since migration skips the GPU->CPU transfer (only
	// the unmap/page-table update is paid). Off by default to match the
	// paper's model, where every eviction transfers.
	TrackDirty bool

	// RunaheadDepth, when positive, makes fault-stalled warps raise
	// speculative faults for the pages of their next N instructions —
	// the runahead-style alternative to thread oversubscription that
	// Section 4.1 of the paper discusses (idealized: the trace makes
	// future addresses exact). 0 disables it.
	RunaheadDepth int

	// ETC controls.
	ETCProactiveEviction bool    // disabled for irregular workloads (paper §5.2)
	ETCThrottleFraction  float64 // fraction of SMs disabled when throttling (0.5)
	ETCEpochCycles       uint64  // detection/execution epoch length
	ETCCapacityFactor    float64 // capacity compression: effective extra capacity
	ETCDecompressCycles  uint64  // added latency per access to compressed page
}

// Config is the complete simulated-system configuration.
type Config struct {
	GPU    GPU
	UVM    UVM
	Policy Policy
	// MaxCycles aborts runaway simulations; 0 means no limit.
	MaxCycles uint64
	// Preload maps the whole workload footprint before launch (the
	// traditional copy-then-run model): no demand paging occurs. Used by
	// the Figure 5 experiment and as the unlimited-memory reference.
	Preload bool
	// TraditionalSwitch provisions one extra thread block per SM and
	// context-switches on any full stall (not just page-fault stalls),
	// reproducing Figure 5's "context switching in traditional GPUs".
	TraditionalSwitch bool
}

// Default returns the Table 1 configuration with the Baseline policy.
func Default() Config {
	return Config{
		GPU: GPU{
			NumSMs:         16,
			ClockGHz:       1.0,
			ThreadsPerSM:   1024,
			WarpSize:       32,
			RegistersPerSM: 65536, // 256KB of 32-bit registers
			MaxBlocksPerSM: 16,
			SharedMemPerSM: 64 << 10,

			L1Bytes:   16 << 10,
			L1Ways:    4,
			L2Bytes:   2 << 20,
			L2Ways:    16,
			LineBytes: 128,

			L1TLBEntries: 64,
			L2TLBEntries: 1024,
			L2TLBWays:    32,

			MemLatency:               200,
			L1Latency:                4,
			L2Latency:                40,
			PageWalkers:              64,
			PTLevels:                 4,
			PWCLatency:               10,
			GlobalMemBWBytesPerCycle: 128,
			SMsPerDomain:             4,
		},
		UVM: UVM{
			PageBytes:          64 << 10,
			FaultBufferEntries: 1024,
			FaultHandlingUS:    20,
			PCIeGBps:           15.75,

			OversubscriptionRatio: 0.5,

			DMASetupCycles: 1000,

			Prefetch:               true,
			PrefetchBlockPages:     32,
			PrefetchThreshold:      0.5,
			PrefetchAggressiveness: 1.0,

			CompressionFactor: 2.0,

			OversubBlocksPerSM: 1,
			MaxOversubBlocks:   3,
			LifetimeWindow:     100_000,
			LifetimeThreshold:  0.20,

			PreemptiveEvictions: 1,

			ETCProactiveEviction: false,
			ETCThrottleFraction:  0.5,
			ETCEpochCycles:       200_000,
			ETCCapacityFactor:    1.25,
			ETCDecompressCycles:  30,
		},
		Policy:    Baseline,
		MaxCycles: 0,
	}
}

// FaultHandlingCycles converts the configured fault handling time to cycles.
func (c *Config) FaultHandlingCycles() uint64 {
	return uint64(c.UVM.FaultHandlingUS * 1000 * c.GPU.ClockGHz)
}

// PageTransferCycles returns the PCIe transfer time for one page, in
// cycles, honoring the compression multiplier when the policy compresses
// PCIe traffic.
func (c *Config) PageTransferCycles() uint64 {
	bw := c.UVM.PCIeGBps
	if c.Policy == BaselineCompressed {
		bw *= c.UVM.CompressionFactor
	}
	// bytes / (GB/s) = ns at 1 GHz; scale by clock for other frequencies.
	ns := float64(c.UVM.PageBytes) / (bw * 1e9) * 1e9
	return uint64(ns * c.GPU.ClockGHz)
}

// DomainCount returns the number of SM synchronization domains the GPU is
// partitioned into: ceil(NumSMs / SMsPerDomain), with SMsPerDomain <= 0
// meaning one domain. The hub (L2, walker, UVM runtime) is a separate
// domain on top of these.
func (c *Config) DomainCount() int {
	spd := c.GPU.SMsPerDomain
	if spd <= 0 || spd > c.GPU.NumSMs {
		spd = c.GPU.NumSMs
	}
	return (c.GPU.NumSMs + spd - 1) / spd
}

// HopCycles returns the request-leg latency of a cross-domain message: an
// SM-domain-to-hub hop models the near half of an L2 access, so the L2 hit
// total (request hop + answer leg) equals the configured L2Latency.
func (c *Config) HopCycles() uint64 {
	h := c.GPU.L2Latency / 2
	if h < 1 {
		h = 1
	}
	return h
}

// Lookahead returns the window width of sim.System: the minimum latency
// of any cross-domain edge, which is the shorter of the request hop and
// the shortest answer leg.
func (c *Config) Lookahead() uint64 {
	req := c.HopCycles()
	ans := c.GPU.L2Latency - req
	if ans < 1 {
		ans = 1
	}
	if ans < req {
		return ans
	}
	return req
}

// CapacityPages returns the GPU memory capacity in pages for a workload
// whose footprint is footprintPages.
func (c *Config) CapacityPages(footprintPages int) int {
	if c.UVM.MemoryPages > 0 {
		return c.UVM.MemoryPages
	}
	pages := int(float64(footprintPages)*c.UVM.OversubscriptionRatio + 0.5)
	if pages < 2 {
		pages = 2 // one frame migrating in, one evicting out
	}
	if pages > footprintPages {
		pages = footprintPages
	}
	return pages
}

// Validate returns an error describing the first invalid parameter.
func (c *Config) Validate() error {
	g, u := &c.GPU, &c.UVM
	switch {
	case g.NumSMs <= 0:
		return fmt.Errorf("config: NumSMs = %d", g.NumSMs)
	case g.ClockGHz <= 0:
		return fmt.Errorf("config: ClockGHz = %v", g.ClockGHz)
	case g.WarpSize != 32:
		// threadCentricKernel, warpCentricKernel and edgeOpsWarp
		// (internal/workload/common.go) lay lanes out 32 wide, so any
		// other width would silently simulate the wrong threads.
		return fmt.Errorf("config: WarpSize %d unsupported: the workload generators emit 32-lane warps", g.WarpSize)
	case g.ThreadsPerSM%g.WarpSize != 0:
		return fmt.Errorf("config: ThreadsPerSM %d not a multiple of WarpSize %d", g.ThreadsPerSM, g.WarpSize)
	case g.RegistersPerSM <= 0:
		return fmt.Errorf("config: RegistersPerSM = %d", g.RegistersPerSM)
	case g.LineBytes == 0 || g.LineBytes&(g.LineBytes-1) != 0:
		return fmt.Errorf("config: LineBytes %d not a power of two", g.LineBytes)
	case g.L1Bytes%(g.LineBytes*uint64(g.L1Ways)) != 0:
		return fmt.Errorf("config: L1 %dB not divisible into %d ways of %dB lines", g.L1Bytes, g.L1Ways, g.LineBytes)
	case g.L2Bytes%(g.LineBytes*uint64(g.L2Ways)) != 0:
		return fmt.Errorf("config: L2 %dB not divisible into %d ways of %dB lines", g.L2Bytes, g.L2Ways, g.LineBytes)
	case g.PageWalkers <= 0:
		return fmt.Errorf("config: PageWalkers = %d", g.PageWalkers)
	case g.IssueSlotsPerCycle < 0:
		return fmt.Errorf("config: IssueSlotsPerCycle = %d", g.IssueSlotsPerCycle)
	case u.PageBytes == 0 || u.PageBytes&(u.PageBytes-1) != 0:
		return fmt.Errorf("config: PageBytes %d not a power of two", u.PageBytes)
	case u.FaultBufferEntries <= 0:
		return fmt.Errorf("config: FaultBufferEntries = %d", u.FaultBufferEntries)
	case u.FaultHandlingUS < 0:
		return fmt.Errorf("config: FaultHandlingUS = %v", u.FaultHandlingUS)
	case u.PCIeGBps <= 0:
		return fmt.Errorf("config: PCIeGBps = %v", u.PCIeGBps)
	case u.OversubscriptionRatio <= 0 && u.MemoryPages == 0:
		return fmt.Errorf("config: OversubscriptionRatio = %v with no MemoryPages override", u.OversubscriptionRatio)
	case u.PrefetchBlockPages <= 0:
		return fmt.Errorf("config: PrefetchBlockPages = %d", u.PrefetchBlockPages)
	case u.PrefetchThreshold < 0 || u.PrefetchThreshold > 1:
		return fmt.Errorf("config: PrefetchThreshold = %v", u.PrefetchThreshold)
	case u.PrefetchAggressiveness < 0:
		return fmt.Errorf("config: PrefetchAggressiveness = %v", u.PrefetchAggressiveness)
	case u.CompressionFactor < 1:
		return fmt.Errorf("config: CompressionFactor = %v", u.CompressionFactor)
	case u.OversubBlocksPerSM < 0 || u.MaxOversubBlocks < u.OversubBlocksPerSM:
		return fmt.Errorf("config: oversubscription blocks %d..%d", u.OversubBlocksPerSM, u.MaxOversubBlocks)
	case u.LifetimeThreshold < 0 || u.LifetimeThreshold > 1:
		return fmt.Errorf("config: LifetimeThreshold = %v", u.LifetimeThreshold)
	case u.PreemptiveEvictions < 0:
		return fmt.Errorf("config: PreemptiveEvictions = %d", u.PreemptiveEvictions)
	case u.RunaheadDepth < 0:
		return fmt.Errorf("config: RunaheadDepth = %d", u.RunaheadDepth)
	case u.ETCThrottleFraction < 0 || u.ETCThrottleFraction >= 1:
		return fmt.Errorf("config: ETCThrottleFraction = %v", u.ETCThrottleFraction)
	}
	return nil
}
