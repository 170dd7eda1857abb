package core

import (
	"errors"
	"fmt"

	"uvmsim/internal/config"
	"uvmsim/internal/gpu"
	"uvmsim/internal/metrics"
	"uvmsim/internal/sim"
	"uvmsim/internal/telemetry"
	"uvmsim/internal/trace"
	"uvmsim/internal/vm"
)

// Machine assembles the full simulated system — GPU cluster, translation
// hardware, and UVM runtime — and replays a compiled workload's kernels to
// completion.
type Machine struct {
	Sys     *sim.System // the SM shards' and the hub's event domains, on one queue
	Eng     *sim.Engine // hub domain engine: runtime, walker, L2, controllers
	Cfg     config.Config
	Stats   *metrics.Stats
	PT      *vm.PageTable
	Cluster *gpu.Cluster
	RT      *Runtime

	workload  *trace.Compiled
	etc       *etcController
	tr        *telemetry.Tracer
	finished  bool
	kernelIdx int
}

// defaultMaxCycles guards against runaway simulations when the config
// sets no explicit limit.
const defaultMaxCycles = 2_000_000_000

// ErrCycleLimit marks a run aborted at its cycle limit. Run returns it
// wrapped, together with the statistics accumulated so far, so sweeps into
// pathological thrashing regimes (deep oversubscription) can report a
// lower bound instead of failing.
var ErrCycleLimit = errors.New("cycle limit exceeded")

// NewMachine builds a machine for cfg and the compiled workload w. The
// configuration is copied; callers may reuse theirs. w must have been
// compiled at cfg's warp size: under another, its warps would partition
// the threads differently than the simulated GPU does.
func NewMachine(cfg config.Config, w *trace.Compiled) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(w.Kernels()) == 0 {
		return nil, fmt.Errorf("core: workload %q has no kernels", w.Name)
	}
	if w.WarpSize != cfg.GPU.WarpSize {
		return nil, fmt.Errorf("core: workload %q was compiled at warp size %d; the simulated GPU uses warp size %d",
			w.Name, w.WarpSize, cfg.GPU.WarpSize)
	}
	sys := sim.NewSystem(cfg.DomainCount() + 1)
	m := &Machine{
		Sys:      sys,
		Eng:      sys.Engine(cfg.DomainCount()), // hub is the last domain
		Cfg:      cfg,
		Stats:    &metrics.Stats{},
		PT:       vm.NewPageTable(),
		workload: w,
	}
	footprint := w.FootprintPages()
	capacity := cfg.CapacityPages(footprint)
	if cfg.Preload {
		capacity = footprint
	}
	if cfg.Policy == config.ETC {
		// Capacity compression buys effective frames at a decompression
		// latency cost on DRAM accesses.
		capacity = int(float64(capacity) * cfg.UVM.ETCCapacityFactor)
		if capacity > footprint {
			capacity = footprint
		}
	}
	pageBytes := cfg.UVM.PageBytes
	space := w.Space()
	inSpace := func(page uint64) bool { return space.Contains(page * pageBytes) }
	m.RT = NewRuntime(m.Eng, &m.Cfg, m.Stats, m.PT, capacity, inSpace)
	m.Cluster = gpu.New(m.Sys, &m.Cfg, m.Stats, m.PT, m.RT)
	m.RT.AttachCluster(m.Cluster)
	if cfg.TraditionalSwitch {
		m.Cluster.SetTraditionalSwitching(true)
		m.Cluster.SetOversubscription(1)
	}
	if cfg.Policy == config.ETC {
		m.Cluster.SetExtraMemCycles(cfg.UVM.ETCDecompressCycles)
		m.etc = newETCController(m.Eng, &m.Cfg, m.Stats, m.Cluster, m.RT)
	}
	if cfg.Preload {
		m.preloadAll()
	}
	return m, nil
}

// AttachTracer threads an execution tracer through every layer: the UVM
// runtime (batch/migration/eviction spans, TO-degree counter), the GPU
// cluster and page walker (context-switch spans, TLB/cache/walk counters),
// and the machine's own kernel spans and engine counters. Call before Run;
// a nil tracer detaches nothing but is harmless.
func (m *Machine) AttachTracer(tr *telemetry.Tracer) {
	m.tr = tr
	m.RT.SetTracer(tr)
	m.Cluster.RegisterTelemetry(tr)
	// Every domain shares the one queue, so this count, like the GPU
	// counters, reads its value at the sample's cycle.
	tr.RegisterCounter("sim.events_dispatched", func() float64 { return float64(m.Sys.Dispatched()) })
	tr.RegisterCounter("mem.resident_pages", func() float64 { return float64(m.RT.Allocator().Len()) })
	tr.RegisterCounter("uvm.pending_faults", func() float64 { return float64(m.RT.PendingFaults()) })
}

// preloadAll maps the workload's whole footprint (the traditional
// copy-then-launch model with no demand paging).
func (m *Machine) preloadAll() {
	pageBytes := m.Cfg.UVM.PageBytes
	for _, arr := range m.workload.Space().Arrays() {
		first := arr.Base / pageBytes
		last := (arr.End() - 1) / pageBytes
		for p := first; p <= last; p++ {
			if !m.PT.Resident(p) {
				m.PT.Map(p)
				m.RT.Allocator().Add(p, 0)
			}
		}
	}
}

// Run executes every kernel in order and returns the collected statistics.
// It fails if the simulation deadlocks or exceeds the cycle limit.
func (m *Machine) Run() (*metrics.Stats, error) {
	m.RT.StartController()
	if m.etc != nil {
		m.etc.start()
	}
	m.launchNext()
	limit := m.Cfg.MaxCycles
	if limit == 0 {
		limit = defaultMaxCycles
	}
	drained := m.Sys.RunUntil(limit)
	if !m.finished {
		if drained {
			return nil, fmt.Errorf("core: %s deadlocked at cycle %d: %d warps waiting, %d faults pending, batch active=%v",
				m.workload.Name, m.Sys.Now(), m.Cluster.WaitingWarps(), m.RT.PendingFaults(), m.RT.BatchActive())
		}
		m.Stats.Cycles = limit
		return m.Stats, fmt.Errorf("core: %s exceeded %d cycles (%s): %w",
			m.workload.Name, limit, m.progress(), ErrCycleLimit)
	}
	// Drain trailing events (in-flight evictions, controller shutdown).
	m.Sys.RunUntil(limit)
	return m.Stats, nil
}

// recentBatches is how many of the latest batch sizes progress reports.
const recentBatches = 5

// progress snapshots the UVM runtime for a cycle-limit error, so a capped
// run can be told apart as livelock or thrash from its message alone.
func (m *Machine) progress() string {
	batches := m.Stats.Batches
	var sizes []int
	for _, b := range batches[max(0, len(batches)-recentBatches):] {
		sizes = append(sizes, b.Pages)
	}
	alloc := m.RT.Allocator()
	return fmt.Sprintf("%d batches, last sizes %v pages, %d/%d pages resident, %d faults pending, "+
		"premature evictions %.1f%%, TO degree %d, %d warps waiting",
		len(batches), sizes, alloc.Len(), alloc.Capacity(), m.RT.PendingFaults(),
		100*m.Stats.PrematureEvictionRate(), m.RT.OversubDegree(), m.Cluster.WaitingWarps())
}

func (m *Machine) launchNext() {
	kernels := m.workload.Kernels()
	if m.kernelIdx >= len(kernels) {
		m.finished = true
		m.Stats.Cycles = m.Eng.Now()
		m.RT.Stop()
		if m.etc != nil {
			m.etc.stop()
		}
		m.tr.Sample() // final counter snapshot at run end
		return
	}
	k := &kernels[m.kernelIdx]
	m.kernelIdx++
	if m.tr.Enabled() {
		name := k.Name
		if name == "" {
			name = fmt.Sprintf("kernel %d", m.kernelIdx-1)
		}
		start := m.Eng.Now()
		m.Cluster.Launch(k, func() {
			m.tr.Span(telemetry.TrackKernels, name, start, m.Eng.Now()-start)
			m.launchNext()
		})
		return
	}
	m.Cluster.Launch(k, m.launchNext)
}

// Run is the package-level convenience: build a machine and run it.
func Run(cfg config.Config, w *trace.Compiled) (*metrics.Stats, error) {
	m, err := NewMachine(cfg, w)
	if err != nil {
		return nil, err
	}
	return m.Run()
}

// RunTraced builds a machine, attaches a fresh tracer, and runs it,
// returning the statistics alongside the collected trace.
func RunTraced(cfg config.Config, w *trace.Compiled) (*metrics.Stats, *telemetry.Tracer, error) {
	m, err := NewMachine(cfg, w)
	if err != nil {
		return nil, nil, err
	}
	tr := telemetry.NewTracer(m.Eng)
	m.AttachTracer(tr)
	stats, err := m.Run()
	return stats, tr, err
}
