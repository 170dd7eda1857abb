package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"uvmsim/internal/exp"
	"uvmsim/internal/harness"
)

// tracer records spans around the benchmark's calls into the program. A
// tracer that does not keep spans still times them, so the untraced path
// runs the same code minus the bookkeeping.
type tracer struct {
	run  string // id every span of this workload run carries
	keep bool
	t0   time.Time

	mu    sync.Mutex
	next  int
	spans []spanRecord
}

type spanRecord struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Run     string `json:"run"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

type span struct {
	tr     *tracer
	id     int
	parent int
	name   string
	start  time.Time
}

func newTracer(run string, keep bool) *tracer {
	return &tracer{run: run, keep: keep, t0: time.Now()}
}

// begin opens a span under parent (0 for none).
func (t *tracer) begin(name string, parent int) span {
	s := span{tr: t, parent: parent, name: name}
	if t.keep {
		t.mu.Lock()
		t.next++
		s.id = t.next
		t.mu.Unlock()
	}
	s.start = time.Now()
	return s
}

// end closes the span and returns its duration.
func (s span) end() time.Duration {
	now := time.Now()
	if t := s.tr; t.keep {
		t.mu.Lock()
		t.spans = append(t.spans, spanRecord{
			ID: s.id, Parent: s.parent, Run: t.run, Name: s.name,
			StartNS: s.start.Sub(t.t0).Nanoseconds(), EndNS: now.Sub(t.t0).Nanoseconds(),
		})
		t.mu.Unlock()
	}
	return now.Sub(s.start)
}

// write saves the kept spans, with the host they ran on, as JSON.
func (t *tracer) write(path string, h hostFacts) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.MarshalIndent(struct {
		Run   string       `json:"run"`
		Host  hostFacts    `json:"host"`
		Spans []spanRecord `json:"spans"`
	}{t.run, h, t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// profileShares is a grid pass's CPU profile folded by package.
type profileShares struct {
	leaf       map[string]float64 // share of samples whose leaf frame is in the package
	invalidate float64            // share of samples under SetLRU.InvalidateRange
	allocs     uint64             // heap objects allocated during the pass
	gcShare    float64            // GC CPU over non-idle CPU during the pass
}

// profiledGrid runs one traced grid pass under a CPU profile written to
// path, and folds the profile by package with go tool pprof.
func profiledGrid(ctx context.Context, r *exp.Runner, jobs []harness.Job, tr *tracer, path string) (*gridOut, *profileShares, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	before := readRuntime()
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, nil, err
	}
	g, err := runGrid(ctx, r, jobs, tr)
	pprof.StopCPUProfile()
	after := readRuntime()
	if err != nil {
		return nil, nil, err
	}
	if err := f.Close(); err != nil {
		return nil, nil, err
	}
	shares, err := foldProfile(path)
	if err != nil {
		return nil, nil, err
	}
	shares.allocs = after.allocs - before.allocs
	if busy := (after.total - after.idle) - (before.total - before.idle); busy > 0 {
		shares.gcShare = (after.gc - before.gc) / busy
	}
	return g, shares, nil
}

type runtimeSample struct {
	allocs          uint64
	gc, idle, total float64 // CPU seconds
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	runtime.GC() // the CPU-class metrics are brought up to date by a GC
	metrics.Read(s)
	return runtimeSample{
		allocs: s[0].Value.Uint64(),
		gc:     s[1].Value.Float64(),
		idle:   s[2].Value.Float64(),
		total:  s[3].Value.Float64(),
	}
}

// invalidateFrame is the function whose inclusive CPU mmu.invalidate_share
// reports: cache invalidation on eviction.
const invalidateFrame = "uvmsim/internal/mmu.(*SetLRU).InvalidateRange"

// foldProfile reads a CPU profile through go tool pprof -raw and sums
// sample time by the package of each sample's leaf frame.
func foldProfile(path string) (*profileShares, error) {
	cmd := exec.Command("go", "tool", "pprof", "-raw", path)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	type sample struct {
		ns   float64
		locs []string
	}
	var samples []sample
	frames := map[string][]string{} // location id -> functions, leaf first
	section, loc := "", ""
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		f := strings.Fields(line)
		switch {
		case line == "Samples:" || line == "Locations" || line == "Mappings":
			section = line
		case len(f) == 0:
		case section == "Samples:" && len(f) >= 2 && strings.HasSuffix(f[1], ":"):
			ns, err := strconv.ParseFloat(strings.TrimSuffix(f[1], ":"), 64)
			if err != nil {
				return nil, fmt.Errorf("pprof sample %q: %w", line, err)
			}
			samples = append(samples, sample{ns, f[2:]})
		case section == "Locations" && len(f) >= 3 && strings.HasSuffix(f[0], ":"):
			// "<id>: <addr> [M=<mapping>] <function> <file:line> s=<line>"
			loc = strings.TrimSuffix(f[0], ":")
			rest := f[2:]
			if len(rest) > 0 && strings.HasPrefix(rest[0], "M=") {
				rest = rest[1:]
			}
			if len(rest) > 0 {
				frames[loc] = append(frames[loc], rest[0])
			}
		case section == "Locations" && loc != "":
			frames[loc] = append(frames[loc], f[0]) // an inlined caller
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := &profileShares{leaf: map[string]float64{}}
	var total float64
	for _, s := range samples {
		total += s.ns
		under := false
		for i, id := range s.locs {
			for j, fn := range frames[id] {
				if i == 0 && j == 0 {
					out.leaf[packageOf(fn)] += s.ns
				}
				under = under || strings.HasPrefix(fn, invalidateFrame)
			}
		}
		if under {
			out.invalidate += s.ns
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("CPU profile %s has no samples", path)
	}
	for k := range out.leaf {
		out.leaf[k] /= total
	}
	out.invalidate /= total
	return out, nil
}

// packageOf returns the import path of a profiled function's package:
// "uvmsim/internal/mmu.(*SetLRU).Lookup" -> "uvmsim/internal/mmu".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerMetrics adds the per-layer metrics of a traced run: set-up layers
// from the set-up spans (median over set-ups), grid layers from the traced
// pass, and trace_overhead against the untraced pass that preceded it.
func layerMetrics(rep *report, setups []*setupOut, plain, traced *gridOut, prof *profileShares, builds harness.BuildStats) {
	med := func(f func(*setupOut) time.Duration) float64 {
		xs := make([]float64, len(setups))
		for i, s := range setups {
			xs[i] = f(s).Seconds()
		}
		return median(xs)
	}
	rep.add("workload.build_s", med(func(s *setupOut) time.Duration { return s.build }), "s", "graph generation and trace building")
	rep.add("trace.compile_s", med(func(s *setupOut) time.Duration { return s.compile }), "s", "")
	rep.add("trace.artifact_save_s", med(func(s *setupOut) time.Duration { return s.save }), "s", "")
	rep.add("trace.artifact_load_s", med(func(s *setupOut) time.Duration { return s.load }), "s", "")
	rep.add("trace.artifact_mb", float64(setups[len(setups)-1].artifactBytes)/1e6, "MB", "compiled traces resident")
	rep.add("trace.cpu_share", prof.leaf["uvmsim/internal/trace"], "ratio", "replay cursor")

	rep.add("harness.builds", float64(builds.Builds), "count", "")
	rep.add("harness.disk_loads", float64(builds.DiskLoads), "count", "")
	rep.add("harness.disk_saves", float64(builds.DiskSaves), "count", "")
	var executed time.Duration
	for _, p := range traced.points {
		executed += p.res.Wall()
	}
	rep.add("harness.overhead_s", (traced.wall - executed).Seconds(), "s", "grid wall minus executor wall")

	var (
		batches, pages                   int
		faults, migrations, evictions    uint64
		premature, switches, instrs      uint64
		handling, processing             uint64
		l1Hit, l1Miss, l2Hit, l2Miss     uint64
		tlb1Hit, tlb1Miss, tlb2Hit, walk uint64
		events, epochs                   uint64
	)
	for _, p := range traced.points {
		events += p.events
		epochs += p.epochs
		s := p.stats()
		if s == nil {
			continue
		}
		batches += len(s.Batches)
		for _, b := range s.Batches {
			pages += b.Pages
			handling += b.FaultHandlingTime()
			processing += b.ProcessingTime()
		}
		faults += s.FaultsRaised
		migrations += s.Migrations
		evictions += s.Evictions
		premature += s.PrematureEv
		switches += s.ContextSwitches
		instrs += s.Instrs
		l1Hit, l1Miss = l1Hit+s.CacheL1Hit, l1Miss+s.CacheL1Mis
		l2Hit, l2Miss = l2Hit+s.CacheL2Hit, l2Miss+s.CacheL2Mis
		tlb1Hit, tlb1Miss = tlb1Hit+s.TLBL1Hits, tlb1Miss+s.TLBL1Miss
		tlb2Hit, walk = tlb2Hit+s.TLBL2Hits, walk+s.TLBL2Miss
	}
	rep.add("core.new_machine_s", traced.newMachine.Seconds(), "s", "")
	rep.add("core.run_s", traced.run.Seconds(), "s", "")
	rep.add("core.cpu_share", prof.leaf["uvmsim/internal/core"], "ratio", "UVM runtime")
	rep.add("core.batches", float64(batches), "count", "")
	rep.add("core.faults", float64(faults), "count", "")
	rep.add("core.migrations", float64(migrations), "count", "")
	rep.add("core.evictions", float64(evictions), "count", "")
	rep.add("core.premature_ev_rate", ratio(premature, evictions), "ratio", "wasted evictions")
	rep.add("core.mean_batch_pages", ratio(uint64(pages), uint64(batches)), "pages", "")
	rep.add("core.fault_handling_share", ratio(handling, processing), "ratio", "fault handling / batch processing")
	rep.add("core.context_switches", float64(switches), "count", "")

	rep.add("gpu.instrs", float64(instrs), "count", "warp-instructions")
	rep.add("gpu.l1_hit_rate", ratio(l1Hit, l1Hit+l1Miss), "ratio", "")
	rep.add("gpu.l2_hit_rate", ratio(l2Hit, l2Hit+l2Miss), "ratio", "")
	rep.add("gpu.cpu_share", prof.leaf["uvmsim/internal/gpu"], "ratio", "SMs and warps")

	rep.add("vm.l1tlb_hit_rate", ratio(tlb1Hit, tlb1Hit+tlb1Miss), "ratio", "")
	rep.add("vm.l2tlb_hit_rate", ratio(tlb2Hit, tlb2Hit+walk), "ratio", "")
	rep.add("vm.walks", float64(walk), "count", "L2 TLB misses")
	rep.add("vm.cpu_share", prof.leaf["uvmsim/internal/vm"], "ratio", "TLBs and page walker")

	rep.add("mmu.cpu_share", prof.leaf["uvmsim/internal/mmu"], "ratio", "cache and TLB arrays")
	rep.add("mmu.invalidate_share", prof.invalidate, "ratio", "under SetLRU.InvalidateRange")

	rep.add("sim.events", float64(events), "count", "")
	rep.add("sim.epochs", float64(epochs), "count", "")
	rep.add("sim.events_per_epoch", ratio(events, epochs), "count", "")
	rep.add("sim.ns_per_event", ratio(uint64(traced.run.Nanoseconds()), events), "ns", "core.run_s / sim.events")
	rep.add("sim.cpu_share", prof.leaf["uvmsim/internal/sim"], "ratio", "event engine")

	rep.add("go.allocs", float64(prof.allocs), "count", "heap objects allocated by the grid")
	rep.add("go.gc_cpu_share", prof.gcShare, "ratio", "")
	rep.add("trace_overhead", traced.wall.Seconds()/plain.wall.Seconds(), "ratio", "traced / untraced grid_s")
	rep.add("failed_frac", float64(traced.capped())/float64(len(traced.points)), "ratio", "points stopped at the cycle cap")
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// hostFacts describe the machine a result was measured on.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func host() hostFacts {
	h := hostFacts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        "unknown",
		Go:         runtime.Version(),
		Commit:     "unknown (not built in a git checkout)",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+modified"
			}
		}
		if rev != "" {
			h.Commit = rev + dirty
		}
	}
	return h
}

func (h hostFacts) String() string {
	s := fmt.Sprintf("nproc=%d GOMAXPROCS=%d cpu=%q go=%s commit=%s", h.NProc, h.GOMAXPROCS, h.CPU, h.Go, h.Commit)
	if h.NProc < 4 {
		s += " [fewer than 4 cores: no parallel-speedup claims]"
	}
	return s
}
