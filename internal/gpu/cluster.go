// Package gpu models the GPU hardware: streaming multiprocessors (SMs),
// warps and thread blocks, the block dispatcher, L1/L2 data caches, and the
// Virtual-Thread-style thread-block context switching that thread
// oversubscription builds on. Address translation hardware comes from
// internal/vm; the UVM runtime (internal/core) plugs in through the
// FaultSink interface.
//
// The cluster is partitioned into the event domains of sim.System: each
// shard — a group of SMs with their private warps, L1 caches, and L1
// TLBs — is one domain, and the shared spine (L2 TLB, L2 cache, page
// walker, DRAM channel, UVM runtime) is the hub domain. A domain schedules
// its events on its own engine, whose rank breaks same-cycle ties on the
// system's one queue; a message to another domain is an event the sender
// schedules one hop or more ahead: the request leg of an L2 access is the
// shard->hub hop, and the rest of the nominal latency is charged hub-side.
// The partitioning is fixed by config.GPU.SMsPerDomain and is part of the
// model: the hop latencies and the tie ranks both follow from it.
package gpu

import (
	"fmt"

	"uvmsim/internal/config"
	"uvmsim/internal/metrics"
	"uvmsim/internal/sim"
	"uvmsim/internal/telemetry"
	"uvmsim/internal/trace"
	"uvmsim/internal/vm"
)

// FaultSink receives page faults raised by the GPU MMU. The UVM runtime
// implements it; it must eventually make the page resident and call
// Cluster.PageArrived.
type FaultSink interface {
	RaiseFault(page uint64)
}

// SM is one streaming multiprocessor: private L1 TLB and L1 data cache,
// plus the resident thread blocks. An SM belongs to exactly one shard.
type SM struct {
	id      int
	sh      *shard
	l1tlb   *vm.TLB
	l1cache *Cache

	active   []*Block
	inactive []*Block

	switching     bool   // a context switch is in flight
	enabled       bool   // false while ETC memory-aware throttling disables the SM
	lastSwitchEnd uint64 // cycle the previous switch completed (cooldown anchor)
	issueFreeAt   uint64 // issue-port virtual time, in 1/slots-cycle units
	deferred      []*Warp
}

// shard is one SM event domain: a slice of the GPU's SMs plus everything
// those SMs touch on the per-access hot path. Events that run shard-side
// schedule on the shard's engine.
type shard struct {
	c   *Cluster
	dom int
	eng *sim.Engine

	sms     []*SM
	waiters map[uint64][]*Warp // faulted page -> warps stalled on it

	// dirtyLocal mirrors the hub's dirty set for pages this shard already
	// reported, deduplicating kDirty sends. Nil unless UVM.TrackDirty.
	dirtyLocal map[uint64]struct{}

	// Per-kernel state, set when the launch message arrives. The shard owns
	// the static partition {dom, dom+D, dom+2D, ...} of the grid's blocks.
	kernel            *trace.CompiledKernel
	schedLimit        int
	switchCycles      uint64
	nextLocal         int
	oversubDegree     int
	traditionalSwitch bool

	// Prebound message callbacks (one closure each, built at
	// construction, so messaging never allocates).
	launchFn      func()       // shard-side: start the hub's current kernel
	pageArrivedFn func(uint64) // shard-side: wake waiters on a page
	invalidateFn  func(uint64) // shard-side: L1 shootdown for a page
	oversubFn     func(uint64) // shard-side: apply an oversubscription degree
	smEnableFn    func(uint64) // shard-side: apply id<<1|enabled
	faultFn       func(uint64) // hub-side: fault raised by this shard

	// Pools: these keep the issue->translate->resolve path allocation-free
	// (TestCompiledRunAllocationBudget in internal/core guards it).
	keyPool    [][]uint64
	opPool     []*memOp
	xlatPool   []*xlatReq
	waiterPool [][]*Warp
}

// Cluster is the whole GPU: the shard domains plus the hub-owned shared
// translation and cache hardware, executing one kernel at a time. All
// exported methods are hub-side: they must be called from hub-domain
// events (or while the system is quiescent, e.g. before Run or in tests).
type Cluster struct {
	eng *sim.Engine // hub engine

	cfg   *config.Config
	stats *metrics.Stats
	pt    *vm.PageTable

	walker  *vm.Walker
	l2tlb   *vm.TLB
	l2cache *Cache
	shards  []*shard
	sms     []*SM // every shard's SMs, by id
	sink    FaultSink

	// tr is the execution tracer; nil disables tracing (nil-check no-ops).
	tr *telemetry.Tracer

	hop uint64 // request-leg hop latency shard->hub
	ans uint64 // answer-leg latency of an L2 TLB hit (L2Latency - hop)
	la  uint64 // shortest shard<->hub latency (config.Lookahead)

	// Per-kernel state (hub side: grid-completion accounting).
	kernel       *trace.CompiledKernel
	blocksDone   int
	onKernelDone func()

	// oversubDegree and enabledSM mirror the shard-side state the hub last
	// commanded; shards apply a command one hop later, so controllers read
	// the commanded value here, not the shards' current one.
	oversubDegree int
	enabledSM     []bool

	traditionalSwitch bool
	extraMemCycles    uint64

	// dramFreeAt models DRAM bandwidth contention when
	// GPU.DRAMBytesPerCycle is configured: the cycle the memory channel
	// next becomes free. The channel is hub-owned.
	dramFreeAt uint64

	// dirty tracks written pages when UVM.TrackDirty is set (hub-owned;
	// shards report via dirty messages).
	dirty map[uint64]struct{}

	// faultsSeen counts fault messages arriving at the hub: the hub-side
	// view of Stats.FaultsRaised, one hop behind it, that the ETC
	// controller reads.
	faultsSeen uint64

	// faultFrom maps each in-flight faulting page to the bitmask of shard
	// domains that demand-faulted on it, so PageArrived wakes only shards
	// that registered waiters — prefetch and runahead pages (no recorded
	// faulter) arrive without generating any wake traffic at all. Hub-owned;
	// nil when the cluster has more than 64 shards, falling back to
	// broadcast wakes.
	faulters map[uint64]uint64

	// Prebound hub-side receive callbacks.
	blockDoneFn func(uint64)
	runaheadFn  func(uint64)
	dirtyFn     func(uint64)
}

// New assembles a cluster over the given system. The system must have
// cfg.DomainCount()+1 domains (the shards plus the hub, last). sink may be
// nil for workloads guaranteed not to fault (tests, unlimited-memory
// runs) — a fault with a nil sink panics.
func New(sys *sim.System, cfg *config.Config, stats *metrics.Stats, pt *vm.PageTable, sink FaultSink) *Cluster {
	g := &cfg.GPU
	nd := cfg.DomainCount()
	if sys.Domains() != nd+1 {
		panic(fmt.Sprintf("gpu: system has %d domains, config wants %d shards + hub", sys.Domains(), nd))
	}
	// The cluster's messaging is a strict star: shards talk only to the
	// hub (faults, dirty notices, runahead, block completion) and the hub
	// only to shards (launches, page arrivals, invalidations, translation
	// answers).
	eng := sys.Engine(nd)
	c := &Cluster{
		eng:     eng,
		cfg:     cfg,
		stats:   stats,
		pt:      pt,
		walker:  vm.NewWalker(eng, pt, g.PageWalkers, g.PTLevels, g.MemLatency, g.PWCLatency),
		l2tlb:   vm.NewTLB(g.L2TLBEntries, g.L2TLBWays),
		l2cache: NewCache(g.L2Bytes, g.L2Ways, g.LineBytes),
		sink:    sink,
		hop:     cfg.HopCycles(),
		la:      cfg.Lookahead(),
	}
	c.ans = g.L2Latency - c.hop
	if c.ans < c.la {
		c.ans = c.la
	}
	if cfg.UVM.TrackDirty {
		c.dirty = make(map[uint64]struct{})
	}
	if nd <= 64 {
		c.faulters = make(map[uint64]uint64)
	}
	c.enabledSM = make([]bool, g.NumSMs)
	c.blockDoneFn = func(uint64) { c.blockDoneAtHub() }
	c.runaheadFn = func(page uint64) { c.runaheadFault(page) }
	c.dirtyFn = func(page uint64) { c.dirty[page] = struct{}{} }

	spd := g.SMsPerDomain
	if spd <= 0 || spd > g.NumSMs {
		spd = g.NumSMs
	}
	for d := 0; d < nd; d++ {
		s := &shard{c: c, dom: d, eng: sys.Engine(d), waiters: make(map[uint64][]*Warp)}
		if cfg.UVM.TrackDirty {
			s.dirtyLocal = make(map[uint64]struct{})
		}
		s.launchFn = s.launch
		s.pageArrivedFn = s.pageArrived
		s.invalidateFn = s.invalidate
		s.oversubFn = func(v uint64) { s.oversubDegree = int(v) }
		s.smEnableFn = s.smEnable
		s.faultFn = func(page uint64) { c.faultFrom(s, page) }
		c.shards = append(c.shards, s)
	}
	for i := 0; i < g.NumSMs; i++ {
		s := c.shards[i/spd]
		sm := &SM{
			id:      i,
			sh:      s,
			l1tlb:   vm.NewFullyAssociativeTLB(g.L1TLBEntries),
			l1cache: NewCache(g.L1Bytes, g.L1Ways, g.LineBytes),
			enabled: true,
		}
		s.sms = append(s.sms, sm)
		c.sms = append(c.sms, sm)
		c.enabledSM[i] = true
	}
	return c
}

// RegisterTelemetry attaches a tracer: context-switch spans are emitted
// from then on, and the translation/cache counters join the tracer's
// sampled registry. No-op with a nil tracer. Shards and hub count into
// the one Stats, so every counter reads its value at the sample's cycle.
func (c *Cluster) RegisterTelemetry(tr *telemetry.Tracer) {
	c.tr = tr
	tr.RegisterCounter("gpu.tlb_l1_hits", func() float64 { return float64(c.stats.TLBL1Hits) })
	tr.RegisterCounter("gpu.tlb_l1_misses", func() float64 { return float64(c.stats.TLBL1Miss) })
	tr.RegisterCounter("gpu.tlb_l2_hits", func() float64 { return float64(c.stats.TLBL2Hits) })
	tr.RegisterCounter("gpu.tlb_l2_misses", func() float64 { return float64(c.stats.TLBL2Miss) })
	tr.RegisterCounter("gpu.cache_l1_hits", func() float64 { return float64(c.stats.CacheL1Hit) })
	tr.RegisterCounter("gpu.cache_l1_misses", func() float64 { return float64(c.stats.CacheL1Mis) })
	tr.RegisterCounter("gpu.cache_l2_hits", func() float64 { return float64(c.stats.CacheL2Hit) })
	tr.RegisterCounter("gpu.cache_l2_misses", func() float64 { return float64(c.stats.CacheL2Mis) })
	tr.RegisterCounter("gpu.context_switches", func() float64 { return float64(c.stats.ContextSwitches) })
	c.walker.RegisterTelemetry(tr)
}

// FaultsSeen returns the number of fault messages the hub has received:
// Stats.FaultsRaised as the hub sees it, one hop behind the shards that
// raise the faults.
func (c *Cluster) FaultsSeen() uint64 { return c.faultsSeen }

// SetOversubscription sets the number of extra (inactive) thread blocks
// each SM may host. The premature-eviction controller adjusts this during
// a run; shards apply the new degree one hop later.
func (c *Cluster) SetOversubscription(degree int) {
	if degree < 0 {
		degree = 0
	}
	c.oversubDegree = degree
	for _, s := range c.shards {
		c.eng.ScheduleArg(c.eng.Now()+c.la, s.oversubFn, uint64(degree))
	}
}

// Oversubscription returns the most recently commanded extra-block degree.
func (c *Cluster) Oversubscription() int { return c.oversubDegree }

// SetTraditionalSwitching enables the Figure 5 stall-triggered switching
// mode. Construction-time only.
func (c *Cluster) SetTraditionalSwitching(on bool) {
	c.traditionalSwitch = on
	for _, s := range c.shards {
		s.traditionalSwitch = on
	}
}

// SetExtraMemCycles sets the per-DRAM-access decompression penalty (ETC
// capacity compression). Construction-time only.
func (c *Cluster) SetExtraMemCycles(n uint64) { c.extraMemCycles = n }

// NumSMs returns the SM count.
func (c *Cluster) NumSMs() int { return len(c.sms) }

// SchedulableBlocks computes how many blocks of kernel k one SM can host
// actively, applying the thread, register, and block-slot constraints from
// Section 2.1.
func (c *Cluster) SchedulableBlocks(k *trace.CompiledKernel) int {
	return SchedulableBlocks(&c.cfg.GPU, k)
}

// SchedulableBlocks is the package-level form of the per-SM block limit,
// used by the working-set analyzer as well as the cluster.
func SchedulableBlocks(g *config.GPU, k *trace.CompiledKernel) int {
	limit := g.MaxBlocksPerSM
	if byThreads := g.ThreadsPerSM / k.ThreadsPerBlock; byThreads < limit {
		limit = byThreads
	}
	regsPerBlock := k.RegsPerThread * k.ThreadsPerBlock
	if regsPerBlock > 0 {
		if byRegs := g.RegistersPerSM / regsPerBlock; byRegs < limit {
			limit = byRegs
		}
	}
	if limit < 1 {
		limit = 1 // a kernel that fits nowhere still runs one block at a time
	}
	return limit
}

// contextSwitchCycles prices one full context switch (save + restore of
// register files and per-block state through global memory), following
// footnote 5 and Section 6.5 of the paper.
func (c *Cluster) contextSwitchCycles(k *trace.CompiledKernel) uint64 {
	const blockStateBytes = 5 << 10 // warp IDs, block IDs, SIMT stack
	ctx := uint64(k.ThreadsPerBlock*k.RegsPerThread*4) + blockStateBytes
	bw := c.cfg.GPU.GlobalMemBWBytesPerCycle
	if bw == 0 {
		return 0
	}
	return 2 * ctx / bw // save, then restore
}

// Launch starts kernel k. onDone runs when every block has finished.
// Only one kernel runs at a time. The shards receive their partitions one
// hop after the launch.
func (c *Cluster) Launch(k *trace.CompiledKernel, onDone func()) {
	if c.kernel != nil {
		panic("gpu: Launch while a kernel is running")
	}
	c.kernel = k
	c.blocksDone = 0
	c.onKernelDone = onDone
	if k.Blocks == 0 {
		c.finishKernel()
		return
	}
	now := c.eng.Now()
	for _, s := range c.shards {
		c.eng.Schedule(now+c.la, s.launchFn)
	}
}

// launch is the shard-side kernel start: reset the SMs, adopt the hub's
// current kernel, and fill the block slots from the shard's partition.
func (s *shard) launch() {
	if len(s.waiters) != 0 {
		panic("gpu: stale fault waiters across kernel launch")
	}
	k := s.c.kernel
	s.kernel = k
	s.schedLimit = s.c.SchedulableBlocks(k)
	s.switchCycles = s.c.contextSwitchCycles(k)
	s.nextLocal = 0
	for _, sm := range s.sms {
		sm.active = sm.active[:0]
		sm.inactive = sm.inactive[:0]
		sm.switching = false
		sm.deferred = sm.deferred[:0]
	}
	for _, sm := range s.sms {
		s.refillSM(sm)
	}
}

// refillSM tops up an SM's active and inactive block slots from the
// shard's partition of the grid. Throttled SMs receive no new blocks.
func (s *shard) refillSM(sm *SM) {
	if !sm.enabled {
		return
	}
	for len(sm.active) < s.schedLimit {
		b, ok := s.dispatchBlock(sm, true)
		if !ok {
			break
		}
		sm.active = append(sm.active, b)
		s.startBlock(b)
	}
	for len(sm.inactive) < s.oversubDegree {
		b, ok := s.dispatchBlock(sm, false)
		if !ok {
			break
		}
		sm.inactive = append(sm.inactive, b)
	}
}

// dispatchBlock pulls the next block of the shard's partition for sm. The
// grid is statically partitioned round-robin across shards (block idx mod
// D); within a shard, blocks dispatch demand-driven in index order, which
// with one shard reproduces the global FIFO dispatcher exactly.
func (s *shard) dispatchBlock(sm *SM, active bool) (*Block, bool) {
	idx := s.dom + s.nextLocal*len(s.c.shards)
	if idx >= s.kernel.Blocks {
		return nil, false
	}
	s.nextLocal++
	b := &Block{idx: idx, sm: sm, active: active}
	nWarps := s.kernel.WarpsPerBlock()
	b.warps = make([]*Warp, 0, nWarps)
	for w := 0; w < nWarps; w++ {
		wp := &Warp{
			id:     w,
			block:  b,
			stream: s.kernel.Stream(idx, w),
			state:  WarpReady,
		}
		// Prebake the two completion callbacks the warp reschedules with
		// on every instruction, so the per-access hot path never allocates
		// a closure.
		wp.resumeFn = func() {
			wp.state = WarpReady
			s.issueWarp(wp)
		}
		wp.issueMemFn = func() { s.issueMemory(wp, wp.pendingAcc) }
		b.warps = append(b.warps, wp)
	}
	return b, true
}

// startBlock issues every ready warp of a newly activated block.
func (s *shard) startBlock(b *Block) {
	b.started = true
	for _, w := range b.warps {
		if w.state == WarpReady {
			s.issueWarp(w)
		}
	}
}

// issueWarp advances a ready warp: replays a faulted access if one is
// pending, otherwise fetches the next instruction.
func (s *shard) issueWarp(w *Warp) {
	sm := w.block.sm
	if !sm.enabled {
		sm.deferred = append(sm.deferred, w)
		return
	}
	if !w.block.active {
		// A warp of an inactive block just became ready: the block is now
		// a context-switch candidate.
		s.maybeSwitch(sm)
		return
	}
	if w.hasReplay {
		w.hasReplay = false
		w.state = WarpBusy
		s.issueMemory(w, w.replayAcc)
		return
	}
	acc, ok := w.stream.Next()
	if !ok {
		s.warpDone(w)
		return
	}
	s.c.stats.Instrs++
	w.state = WarpBusy
	delay := acc.ComputeCycles
	if delay == 0 {
		delay = 1 // every instruction occupies at least one cycle
	}
	delay += s.issueQueueDelay(sm)
	if acc.IsMemory() {
		// The warp stays Busy until issueMemFn fires, so pendingAcc cannot
		// be overwritten by a second in-flight instruction.
		w.pendingAcc = acc
		s.eng.After(delay, w.issueMemFn)
	} else {
		s.eng.After(delay, w.resumeFn)
	}
	if s.traditionalSwitch {
		// In stall-triggered mode the block may have just lost its last
		// ready warp.
		s.maybeSwitch(sm)
	}
}

// memOp tracks one memory instruction's translation fan-out and its data
// trip to the hub: how many page translations are still outstanding, which
// pages faulted, and which lines missed L1. Ops are pooled on the shard;
// one is live from issueMemory until the instruction resolves.
type memOp struct {
	s       *shard
	w       *Warp
	acc     trace.Access
	lines   []uint64
	miss    []uint64 // L1-miss lines priced at the hub
	pending int
	faulted []uint64
	hubFn   func() // hub-side: price the L1 misses against L2/DRAM
	ansFn   func() // shard-side: resume the warp, recycle the op
}

// pageDone records one page's translation answer; the last one completes
// the instruction.
func (op *memOp) pageDone(page uint64, resident bool) {
	if !resident {
		op.faulted = append(op.faulted, page)
	}
	op.pending--
	if op.pending == 0 {
		op.s.memoryResolved(op)
	}
}

func (s *shard) getOp() *memOp {
	if n := len(s.opPool); n > 0 {
		op := s.opPool[n-1]
		s.opPool = s.opPool[:n-1]
		return op
	}
	op := &memOp{s: s}
	op.hubFn = op.hubData
	op.ansFn = op.dataAnswer
	return op
}

func (s *shard) putOp(op *memOp) {
	op.w = nil
	op.acc = trace.Access{}
	op.lines = nil
	op.miss = nil
	op.faulted = op.faulted[:0]
	s.opPool = append(s.opPool, op)
}

// issueMemory coalesces the access's lanes, translates the touched pages,
// and either services the data or raises page faults.
func (s *shard) issueMemory(w *Warp, acc trace.Access) {
	pageBytes := s.c.cfg.UVM.PageBytes
	lineBytes := s.c.cfg.GPU.LineBytes
	pages := uniqueKeysInto(s.getKeys(), acc.Addrs, pageBytes)
	lines := uniqueKeysInto(s.getKeys(), acc.Addrs, lineBytes)

	op := s.getOp()
	op.w, op.acc, op.lines = w, acc, lines
	op.pending = len(pages)
	for _, p := range pages {
		s.translate(w.block.sm, p, op)
	}
	// translate fan-out copies page values, never the slice, so pages can
	// be recycled as soon as the loop completes.
	s.putKeys(pages)
}

// memoryResolved finishes a memory instruction once all its pages have a
// translation answer: the fault path stalls the warp, the data path prices
// the L1 accesses locally and ships any misses to the hub.
func (s *shard) memoryResolved(op *memOp) {
	w, acc := op.w, op.acc
	if len(op.faulted) > 0 {
		if s.c.sink == nil {
			panic(fmt.Sprintf("gpu: page fault on page %d with no fault sink", op.faulted[0]))
		}
		s.putKeys(op.lines) // the fault path never prices the data accesses
		op.lines = nil
		w.state = WarpFaultStalled
		w.hasReplay = true
		w.replayAcc = acc
		w.pendingPgs = w.pendingPgs[:0]
		b := w.block
		b.faultStalled++
		now := s.eng.Now()
		for _, p := range op.faulted {
			w.pendingPgs = append(w.pendingPgs, p)
			ws, ok := s.waiters[p]
			if !ok {
				ws = s.getWaiters()
			}
			s.waiters[p] = append(ws, w)
			s.c.stats.FaultsRaised++
			s.eng.ScheduleArg(now+s.c.la, s.faultFn, p)
		}
		s.runahead(w)
		s.putOp(op)
		s.maybeSwitch(b.sm)
		return
	}
	if acc.Store && s.dirtyLocal != nil {
		now := s.eng.Now()
		for _, a := range acc.Addrs {
			page := a / s.c.cfg.UVM.PageBytes
			if _, ok := s.dirtyLocal[page]; !ok {
				s.dirtyLocal[page] = struct{}{}
				s.eng.ScheduleArg(now+s.c.la, s.c.dirtyFn, page)
			}
		}
	}
	// Price the L1 accesses here; collect the misses for the hub. Lines
	// are serviced in parallel, so the instruction waits for the slowest.
	sm := w.block.sm
	miss := s.getKeys()
	for _, line := range op.lines {
		if sm.l1cache.Access(line) {
			s.c.stats.CacheL1Hit++
		} else {
			s.c.stats.CacheL1Mis++
			miss = append(miss, line)
		}
	}
	nLines := len(op.lines)
	s.putKeys(op.lines)
	op.lines = nil
	if len(miss) == 0 {
		s.putKeys(miss)
		lat := s.c.cfg.GPU.L1Latency
		if nLines == 0 || lat == 0 {
			lat = max64(lat, 1)
		}
		s.putOp(op)
		s.eng.After(lat, w.resumeFn)
		return
	}
	op.miss = miss
	s.eng.Schedule(s.eng.Now()+s.c.hop, op.hubFn)
}

// hubData prices a memory instruction's L1-miss lines against the L2 cache
// and the DRAM channel, then schedules the answer so the warp resumes at
// the same cycle the single-queue model would have chosen: request hop +
// answer leg add up to the nominal L1+L2(+Mem) latency.
func (op *memOp) hubData() {
	c := op.s.c
	g := &c.cfg.GPU
	var worst uint64
	for _, line := range op.miss {
		lat := g.L1Latency + g.L2Latency
		if c.l2cache.Access(line) {
			c.stats.CacheL2Hit++
		} else {
			c.stats.CacheL2Mis++
			lat += g.MemLatency + c.extraMemCycles + c.dramQueueDelay()
		}
		if lat > worst {
			worst = lat
		}
	}
	delay := uint64(1)
	if worst > c.hop {
		delay = worst - c.hop
	}
	if delay < c.la {
		delay = c.la
	}
	c.eng.Schedule(c.eng.Now()+delay, op.ansFn)
}

// dataAnswer lands the hub's pricing back on the shard and resumes the
// warp.
func (op *memOp) dataAnswer() {
	s, w := op.s, op.w
	s.putKeys(op.miss)
	op.miss = nil
	s.putOp(op)
	w.state = WarpReady
	s.issueWarp(w)
}

// runahead raises speculative faults for the pages of a fault-stalled
// warp's next RunaheadDepth instructions (no waiters are registered: the
// pages simply join the fault batch early). The hub filters residency —
// the shard cannot read the page table — and counts the speculative
// faults. This is the idealized runahead alternative Section 4.1 of the
// paper weighs against thread oversubscription.
func (s *shard) runahead(w *Warp) {
	depth := s.c.cfg.UVM.RunaheadDepth
	if depth == 0 {
		return
	}
	pageBytes := s.c.cfg.UVM.PageBytes
	now := s.eng.Now()
	scratch := s.getKeys()
	for i := 0; i < depth; i++ {
		acc, ok := w.stream.PeekAhead(i)
		if !ok {
			break
		}
		scratch = uniqueKeysInto(scratch[:0], acc.Addrs, pageBytes)
		for _, p := range scratch {
			s.eng.ScheduleArg(now+s.c.la, s.c.runaheadFn, p)
		}
	}
	s.putKeys(scratch)
}

// runaheadFault is the hub half of runahead: drop candidates that are
// already resident, count and raise the rest.
func (c *Cluster) runaheadFault(page uint64) {
	if c.pt.Resident(page) {
		return
	}
	c.stats.RunaheadFaults++
	c.sink.RaiseFault(page)
}

// faultFrom receives one shard's demand fault at the hub. If the page
// became resident while the message was in flight (a migration completed),
// the hub answers with a targeted wake instead of dropping the fault —
// otherwise the shard's freshly registered waiter would stall forever.
func (c *Cluster) faultFrom(s *shard, page uint64) {
	c.faultsSeen++
	if c.pt.Resident(page) {
		c.eng.ScheduleArg(c.eng.Now()+c.la, s.pageArrivedFn, page)
		return
	}
	if c.faulters != nil {
		c.faulters[page] |= 1 << uint(s.dom)
	}
	c.sink.RaiseFault(page)
}

// xlatReq is one page's trip through the translation hierarchy beyond the
// L1 TLB: a request hop to the hub's L2 TLB, possibly a page walk, and an
// answer hop back. Requests are pooled on the shard; the callbacks are
// bound once at construction so re-scheduling never allocates. Ownership
// alternates shard -> hub -> shard, handed over by each hop's event.
type xlatReq struct {
	s        *shard
	sm       *SM
	page     uint64
	op       *memOp
	resident bool
	hubFn    func()     // hub-side: L2 TLB stage
	walkFn   func(bool) // hub-side: walker's residency answer
	ansFn    func()     // shard-side: deliver the answer
}

func (s *shard) getXlat() *xlatReq {
	if n := len(s.xlatPool); n > 0 {
		r := s.xlatPool[n-1]
		s.xlatPool = s.xlatPool[:n-1]
		return r
	}
	r := &xlatReq{s: s}
	r.hubFn = r.l2Stage
	r.walkFn = r.walkDone
	r.ansFn = r.answer
	return r
}

func (s *shard) putXlat(r *xlatReq) {
	r.sm = nil
	r.op = nil
	s.xlatPool = append(s.xlatPool, r)
}

// l2Stage runs at the hub when the request hop lands: an L2 TLB hit
// answers after the remaining L2 latency, a miss hands the request to the
// shared page walker.
func (r *xlatReq) l2Stage() {
	c := r.s.c
	if c.l2tlb.Lookup(r.page) {
		c.stats.TLBL2Hits++
		r.resident = true
		c.eng.Schedule(c.eng.Now()+c.ans, r.ansFn)
		return
	}
	c.stats.TLBL2Miss++
	c.walker.Walk(r.page, r.walkFn)
}

// walkDone receives the page walker's residency answer at the hub and
// ships it back to the shard.
func (r *xlatReq) walkDone(resident bool) {
	c := r.s.c
	if resident {
		c.l2tlb.Insert(r.page)
	}
	r.resident = resident
	c.eng.Schedule(c.eng.Now()+c.hop, r.ansFn)
}

// answer lands the translation answer on the shard.
func (r *xlatReq) answer() {
	s := r.s
	if r.resident {
		r.sm.l1tlb.Insert(r.page)
	}
	op, page, resident := r.op, r.page, r.resident
	s.putXlat(r)
	op.pageDone(page, resident)
}

// translate resolves a page through L1 TLB -> L2 TLB -> page walker.
// op.pageDone(page, resident) may be called synchronously (L1 hit).
func (s *shard) translate(sm *SM, page uint64, op *memOp) {
	if sm.l1tlb.Lookup(page) {
		s.c.stats.TLBL1Hits++
		op.pageDone(page, true)
		return
	}
	s.c.stats.TLBL1Miss++
	r := s.getXlat()
	r.sm, r.page, r.op = sm, page, op
	s.eng.Schedule(s.eng.Now()+s.c.hop, r.hubFn)
}

// issueQueueDelay charges one issue slot on sm and returns the queueing
// delay behind earlier issues this cycle. With IssueSlotsPerCycle unset,
// issue is unconstrained (the latency-only model).
func (s *shard) issueQueueDelay(sm *SM) uint64 {
	slots := uint64(s.c.cfg.GPU.IssueSlotsPerCycle)
	if slots == 0 {
		return 0
	}
	// The issue port is a server draining `slots` instructions per cycle,
	// tracked in virtual time with 1/slots-cycle resolution.
	nowSlots := s.eng.Now() * slots
	vt := sm.issueFreeAt
	if vt < nowSlots {
		vt = nowSlots
	}
	vt++
	sm.issueFreeAt = vt
	return (vt - nowSlots) / slots
}

// dramQueueDelay charges one line's worth of DRAM channel occupancy and
// returns the queueing delay this access suffers behind earlier misses.
// With DRAMBytesPerCycle unset the channel is uncontended (fixed-latency
// memory, the paper's model). The channel is hub-owned state.
func (c *Cluster) dramQueueDelay() uint64 {
	bw := c.cfg.GPU.DRAMBytesPerCycle
	if bw == 0 {
		return 0
	}
	now := c.eng.Now()
	start := c.dramFreeAt
	if start < now {
		start = now
	}
	occupancy := c.cfg.GPU.LineBytes / bw
	if occupancy == 0 {
		occupancy = 1
	}
	c.dramFreeAt = start + occupancy
	return start - now
}

// PageArrived tells the GPU a page migration completed: warps waiting on
// the page wake (one hop later), replaying their faulted access once all
// their pages are in. Hub-side, called by the UVM runtime. Wakes go only
// to the shards whose demand faults were recorded for the page (ascending
// domain order, so message traffic is deterministic); pages pulled in by
// prefetch or runahead have no recorded faulter and no shard to wake, so
// they cost no messages. Shards whose fault message is still in flight
// when the page lands are woken by faultFrom's resident branch instead.
func (c *Cluster) PageArrived(page uint64) {
	if c.faulters != nil {
		mask, ok := c.faulters[page]
		if !ok {
			return
		}
		delete(c.faulters, page)
		now := c.eng.Now()
		for _, s := range c.shards {
			if mask&(1<<uint(s.dom)) != 0 {
				c.eng.ScheduleArg(now+c.la, s.pageArrivedFn, page)
			}
		}
		return
	}
	now := c.eng.Now()
	for _, s := range c.shards {
		c.eng.ScheduleArg(now+c.la, s.pageArrivedFn, page)
	}
}

// pageArrived wakes this shard's waiters on page.
func (s *shard) pageArrived(page uint64) {
	ws := s.waiters[page]
	if ws == nil {
		return
	}
	delete(s.waiters, page)
	for _, w := range ws {
		w.clearPending(page)
		if len(w.pendingPgs) > 0 {
			continue
		}
		b := w.block
		b.faultStalled--
		w.state = WarpReady
		if b.active {
			s.issueWarp(w)
		} else {
			s.maybeSwitch(b.sm) // an inactive block just became ready
		}
	}
	s.putWaiters(ws)
}

// PageDirty reports whether page was written since it became resident
// (always true when dirty tracking is off: the conservative assumption the
// paper's model makes).
func (c *Cluster) PageDirty(page uint64) bool {
	if c.dirty == nil {
		return true
	}
	_, ok := c.dirty[page]
	return ok
}

// ClearDirty resets a page's dirty bit (called when it is evicted or
// re-migrated). The shards' report-deduplication mirrors clear when the
// eviction's shootdown reaches them.
func (c *Cluster) ClearDirty(page uint64) {
	if c.dirty != nil {
		delete(c.dirty, page)
	}
}

// InvalidatePage performs the TLB shootdown and cache invalidation for an
// evicted page: the hub-owned L2 structures synchronously, the shards' L1
// structures one hop later (a relaxed shootdown window, as on real
// hardware).
func (c *Cluster) InvalidatePage(page uint64) {
	c.l2tlb.Invalidate(page)
	c.l2cache.InvalidatePage(page, c.cfg.UVM.PageBytes, c.cfg.GPU.LineBytes)
	now := c.eng.Now()
	for _, s := range c.shards {
		c.eng.ScheduleArg(now+c.la, s.invalidateFn, page)
	}
}

// invalidate is the shard half of the shootdown.
func (s *shard) invalidate(page uint64) {
	pageBytes := s.c.cfg.UVM.PageBytes
	lineBytes := s.c.cfg.GPU.LineBytes
	for _, sm := range s.sms {
		sm.l1tlb.Invalidate(page)
		sm.l1cache.InvalidatePage(page, pageBytes, lineBytes)
	}
	if s.dirtyLocal != nil {
		delete(s.dirtyLocal, page)
	}
}

// WaitingWarps returns the number of warps currently stalled on faults.
// Quiescent-state accessor (deadlock diagnostics, tests).
func (c *Cluster) WaitingWarps() int {
	n := 0
	for _, s := range c.shards {
		for _, ws := range s.waiters {
			n += len(ws)
		}
	}
	return n
}

// warpDone retires a warp and, if its block finished, retires the block.
func (s *shard) warpDone(w *Warp) {
	w.state = WarpDone
	b := w.block
	b.doneWarps++
	if !b.finished() {
		if s.traditionalSwitch {
			s.maybeSwitch(b.sm)
		}
		return
	}
	s.blockDone(b)
}

// blockDone removes a finished block from its SM, reports the completion
// to the hub's grid accounting, and backfills the slot locally.
func (s *shard) blockDone(b *Block) {
	sm := b.sm
	removeBlock(&sm.active, b)
	s.eng.ScheduleArg(s.eng.Now()+s.c.la, s.c.blockDoneFn, 1)
	// Prefer resuming a started inactive block over fetching a fresh one
	// (a partially-run block holds pages resident and must not starve);
	// maybeSwitch fills free slots from the inactive list first.
	s.maybeSwitch(sm)
	s.refillSM(sm)
}

// blockDoneAtHub advances the grid completion count; the last block
// finishes the kernel.
func (c *Cluster) blockDoneAtHub() {
	c.blocksDone++
	if c.blocksDone == c.kernel.Blocks {
		c.finishKernel()
	}
}

func (c *Cluster) finishKernel() {
	done := c.onKernelDone
	c.kernel = nil
	c.onKernelDone = nil
	if done != nil {
		done()
	}
}

// activate moves an inactive block into the active set after the given
// restore delay.
func (s *shard) activate(sm *SM, b *Block, delay uint64) {
	sm.active = append(sm.active, b)
	run := func() {
		b.active = true
		s.startBlock(b)
	}
	if delay == 0 {
		run()
	} else {
		s.c.stats.ContextSwitchCycles += delay
		if s.c.tr.Enabled() {
			s.c.tr.SpanArgs(telemetry.TrackSwitches, "restore", s.eng.Now(), delay,
				map[string]any{"sm": sm.id, "block": b.idx})
		}
		s.eng.After(delay, run)
	}
}

// maybeSwitch performs thread-block context switching on sm when the
// policy calls for it. Two cases:
//
//  1. A free active slot and a runnable inactive block: the block is
//     restored into the slot (half a switch — restore only).
//  2. An active block fully stalled (on faults, or on anything in
//     traditional mode) and a runnable inactive block: a full save+restore
//     swap. The victim freezes at switch start — its context is being
//     saved, so wakeups landing mid-switch cannot issue.
func (s *shard) maybeSwitch(sm *SM) {
	if sm.switching || !sm.enabled {
		return
	}
	// Fill free active slots from the inactive list first so resumed
	// blocks never starve behind fresh dispatches.
	for len(sm.active) < s.schedLimit {
		ib := takeBestInactive(sm)
		if ib == nil {
			break
		}
		s.activate(sm, ib, s.switchCycles/2)
	}
	// Find a victim among active blocks.
	var victim *Block
	for _, b := range sm.active {
		if !b.active {
			continue // still restoring
		}
		stalled := b.fullyFaultStalled()
		if s.traditionalSwitch {
			stalled = b.fullyStalled()
		}
		if stalled {
			victim = b
			break
		}
	}
	if victim == nil {
		return
	}
	// Cooldown: a real warp scheduler spreads issue slots, so a block
	// does not re-reach a fully-stalled state the instant a switch ends.
	// Without this, stall-triggered switching (Figure 5 mode) pays a full
	// switch per ~memory-latency window and degrades far past the ~2x the
	// paper measures.
	if sm.lastSwitchEnd > 0 && s.eng.Now() < sm.lastSwitchEnd+s.switchCycles {
		return
	}
	incoming := takeBestInactive(sm)
	if incoming == nil {
		return
	}
	// Swap: the victim stops issuing now; the incoming block starts after
	// the save+restore delay.
	sm.switching = true
	s.c.stats.ContextSwitches++
	s.c.stats.ContextSwitchCycles += s.switchCycles
	if s.c.tr.Enabled() {
		s.c.tr.SpanArgs(telemetry.TrackSwitches, "ctx switch", s.eng.Now(), s.switchCycles,
			map[string]any{"sm": sm.id, "out_block": victim.idx, "in_block": incoming.idx})
	}
	victim.active = false
	removeBlock(&sm.active, victim)
	sm.inactive = append(sm.inactive, victim)
	sm.active = append(sm.active, incoming) // slot reserved during restore
	s.eng.After(s.switchCycles, func() {
		sm.switching = false
		sm.lastSwitchEnd = s.eng.Now()
		incoming.active = true
		s.startBlock(incoming)
		s.maybeSwitch(sm) // other active blocks may also be stalled
	})
}

// takeBestInactive removes and returns the most runnable inactive block:
// first preference is a previously-started block with a ready warp (it
// holds pages resident), then a fresh block. Returns nil if nothing can
// make progress.
func takeBestInactive(sm *SM) *Block {
	pick := -1
	for i, b := range sm.inactive {
		if !b.hasReadyWarp() {
			continue
		}
		if b.started {
			pick = i
			break
		}
		if pick == -1 {
			pick = i
		}
	}
	if pick == -1 {
		return nil
	}
	b := sm.inactive[pick]
	sm.inactive = append(sm.inactive[:pick], sm.inactive[pick+1:]...)
	return b
}

// SetSMEnabled implements ETC's memory-aware throttling: a disabled SM
// stops issuing warp instructions; wakeups are deferred and flushed on
// re-enable. Hub-side; the owning shard applies the change one hop later.
func (c *Cluster) SetSMEnabled(id int, enabled bool) {
	if c.enabledSM[id] == enabled {
		return
	}
	c.enabledSM[id] = enabled
	var v uint64 = uint64(id) << 1
	if enabled {
		v |= 1
	}
	c.eng.ScheduleArg(c.eng.Now()+c.la, c.sms[id].sh.smEnableFn, v)
}

// smEnable applies a throttling change to one of the shard's SMs.
func (s *shard) smEnable(v uint64) {
	enabled := v&1 == 1
	sm := s.c.sms[v>>1]
	if sm.enabled == enabled {
		return
	}
	sm.enabled = enabled
	if enabled {
		deferred := sm.deferred
		sm.deferred = nil
		for _, w := range deferred {
			if w.state == WarpReady || w.state == WarpBusy {
				// Deferred warps were parked mid-issue; resume them.
				w.state = WarpReady
				s.issueWarp(w)
			}
		}
		s.maybeSwitch(sm)
		if s.kernel != nil {
			s.refillSM(sm)
		}
	}
}

// EnabledSMs returns how many SMs the hub currently has enabled (the
// commanded state; shards apply it one hop later).
func (c *Cluster) EnabledSMs() int {
	n := 0
	for _, on := range c.enabledSM {
		if on {
			n++
		}
	}
	return n
}

func removeBlock(list *[]*Block, b *Block) {
	for i, x := range *list {
		if x == b {
			*list = append((*list)[:i], (*list)[i+1:]...)
			return
		}
	}
	panic("gpu: block not in list")
}

// uniqueKeys returns the distinct addr/granularity values, preserving
// first-seen order (addresses per access are few, so O(n²) beats a map).
func uniqueKeys(addrs []uint64, granularity uint64) []uint64 {
	return uniqueKeysInto(nil, addrs, granularity)
}

// uniqueKeysInto appends the distinct addr/granularity values to dst and
// returns it, so hot-path callers can reuse pooled scratch buffers.
func uniqueKeysInto(dst, addrs []uint64, granularity uint64) []uint64 {
	for _, a := range addrs {
		k := a / granularity
		dup := false
		for _, o := range dst {
			if o == k {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, k)
		}
	}
	return dst
}

// getKeys hands out a zero-length scratch slice from the pool. Callers
// return it with putKeys once no live event can reference it.
func (s *shard) getKeys() []uint64 {
	if n := len(s.keyPool); n > 0 {
		ks := s.keyPool[n-1]
		s.keyPool = s.keyPool[:n-1]
		return ks
	}
	return make([]uint64, 0, 32) // a warp access touches at most 32 lanes
}

func (s *shard) putKeys(ks []uint64) {
	s.keyPool = append(s.keyPool, ks[:0])
}

// getWaiters hands out a zero-length waiter list for a newly faulted
// page; pageArrived returns it once the page's stall resolves.
func (s *shard) getWaiters() []*Warp {
	if n := len(s.waiterPool); n > 0 {
		ws := s.waiterPool[n-1]
		s.waiterPool = s.waiterPool[:n-1]
		return ws
	}
	return make([]*Warp, 0, 8)
}

func (s *shard) putWaiters(ws []*Warp) {
	for i := range ws {
		ws[i] = nil // drop warp references so retired blocks can be collected
	}
	s.waiterPool = append(s.waiterPool, ws[:0])
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
