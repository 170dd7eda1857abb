package core

import (
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/layout"
	"uvmsim/internal/metrics"
	"uvmsim/internal/sim"
	"uvmsim/internal/trace"
	"uvmsim/internal/vm"
)

// scanWorkload builds a workload whose warps walk the whole array page by
// page, each memory access touching exactly one page, with pages shared
// across blocks (irregular-style sharing under oversubscription).
func scanWorkload(pages, blocks, threadsPerBlock, accessesPerThread int) *trace.Workload {
	const pageBytes = 64 << 10
	sp := layout.NewSpace(pageBytes)
	arr := sp.Alloc("data", 4, pages*(pageBytes/4))
	intsPerPage := pageBytes / 4
	k := trace.Kernel{
		Name:            "scan",
		Blocks:          blocks,
		ThreadsPerBlock: threadsPerBlock,
		RegsPerThread:   32,
		Emit: func(b *trace.Builder, block, warp int) {
			warpsPerBlock := threadsPerBlock / 32
			gwarp := block*warpsPerBlock + warp
			for i := 0; i < accessesPerThread; i++ {
				// Stride 17 is coprime to the page counts used in tests,
				// so each warp walks distinct pages while still sharing
				// them with other warps.
				page := (gwarp + i*17) % pages
				for lane := 0; lane < 32; lane++ {
					b.Addr(arr.Addr(page*intsPerPage + lane))
				}
				b.EndAccess(4, false)
			}
		},
	}
	return &trace.Workload{Name: "scan", Space: sp, Kernels: []trace.Kernel{k}, Irregular: true}
}

func testConfig(policy config.Policy) config.Config {
	cfg := config.Default()
	cfg.Policy = policy
	cfg.GPU.NumSMs = 4
	cfg.MaxCycles = 2_000_000_000
	return cfg
}

func TestPlanMigrationsFirstMigrationAtCycleZero(t *testing.T) {
	// Regression test: planMigrations used firstMig == 0 as its "not set
	// yet" sentinel, so a batch whose first migration legitimately starts
	// at cycle 0 kept overwriting firstMig with later migrations' starts
	// and finally clobbered it to t0. The recorded metrics.Batch then
	// reported a FirstMigration that was not the first migration.
	cfg := testConfig(config.Baseline)
	eng := sim.NewEngine()
	r := NewRuntime(eng, &cfg, &metrics.Stats{}, vm.NewPageTable(), 1024,
		func(uint64) bool { return true })

	// Contiguous pages: one DMA setup, then back-to-back transfers, all
	// starting at cycle 0 on an idle channel.
	evictions, firstMig, lastDone := r.planMigrations(0, 0, []uint64{10, 11, 12})
	if evictions != 0 {
		t.Fatalf("evictions = %d, want 0 (capacity not exceeded)", evictions)
	}
	if firstMig != 0 {
		t.Fatalf("firstMig = %d, want 0 (first transfer starts on the idle channel)", firstMig)
	}
	mig := cfg.PageTransferCycles()
	setup := cfg.UVM.DMASetupCycles
	if want := setup + 3*mig; lastDone != want {
		t.Fatalf("lastDone = %d, want %d", lastDone, want)
	}
	b := metrics.Batch{Start: 0, FirstMigration: firstMig, End: lastDone}
	if b.FirstMigration != 0 || b.FirstMigration > b.End {
		t.Fatalf("recorded batch misreports first migration: %+v", b)
	}
}

func TestMachineRunsToCompletion(t *testing.T) {
	w := scanWorkload(64, 8, 256, 6)
	stats, err := Run(testConfig(config.Baseline), w)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cycles == 0 {
		t.Fatal("zero cycles recorded")
	}
	if stats.Migrations == 0 {
		t.Fatal("no pages migrated")
	}
	if stats.NumBatches() == 0 {
		t.Fatal("no batches recorded")
	}
}

func TestOversubscriptionForcesEvictions(t *testing.T) {
	w := scanWorkload(64, 8, 256, 6)
	cfg := testConfig(config.Baseline)
	cfg.UVM.OversubscriptionRatio = 0.5
	stats, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Evictions == 0 {
		t.Fatal("50% oversubscription produced no evictions")
	}
	// With thrashing, some pages must come back: premature evictions.
	if stats.PrematureEv == 0 {
		t.Fatal("shared-page streaming produced no premature evictions")
	}
}

func TestFullMemoryNoEvictions(t *testing.T) {
	w := scanWorkload(32, 4, 256, 4)
	cfg := testConfig(config.Baseline)
	cfg.UVM.OversubscriptionRatio = 1.0
	stats, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Evictions != 0 {
		t.Fatalf("full-memory run evicted %d pages", stats.Evictions)
	}
	// Every footprint page must have migrated exactly once (demand +
	// prefetch covers the footprint; no page migrates twice).
	if stats.Migrations != uint64(w.FootprintPages()) {
		t.Fatalf("migrated %d pages, footprint %d", stats.Migrations, w.FootprintPages())
	}
}

func TestPreloadSkipsPaging(t *testing.T) {
	w := scanWorkload(32, 4, 256, 4)
	cfg := testConfig(config.Baseline)
	cfg.Preload = true
	stats, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FaultsRaised != 0 || stats.Migrations != 0 {
		t.Fatalf("preloaded run faulted %d / migrated %d", stats.FaultsRaised, stats.Migrations)
	}
}

func TestBatchInvariants(t *testing.T) {
	w := scanWorkload(64, 8, 256, 6)
	stats, err := Run(testConfig(config.Baseline), w)
	if err != nil {
		t.Fatal(err)
	}
	handling := uint64(20000)
	for i, b := range stats.Batches {
		if b.FirstMigration < b.Start+handling {
			t.Fatalf("batch %d: first migration at %d before fault handling done (%d)",
				i, b.FirstMigration, b.Start+handling)
		}
		if b.End < b.FirstMigration {
			t.Fatalf("batch %d: end %d before first migration %d", i, b.End, b.FirstMigration)
		}
		if b.Faults <= 0 || b.Pages < b.Faults {
			t.Fatalf("batch %d: faults=%d pages=%d", i, b.Faults, b.Pages)
		}
		if i > 0 && b.Start < stats.Batches[i-1].End {
			t.Fatalf("batch %d starts at %d before batch %d ends at %d",
				i, b.Start, i-1, stats.Batches[i-1].End)
		}
	}
}

func TestUEFasterThanBaselineUnderPressure(t *testing.T) {
	w := scanWorkload(96, 8, 256, 8)
	base, err := Run(testConfig(config.Baseline), w)
	if err != nil {
		t.Fatal(err)
	}
	ue, err := Run(testConfig(config.UE), w)
	if err != nil {
		t.Fatal(err)
	}
	if base.Evictions == 0 {
		t.Fatal("test needs eviction pressure")
	}
	if ue.Cycles >= base.Cycles {
		t.Fatalf("UE (%d cycles) not faster than baseline (%d)", ue.Cycles, base.Cycles)
	}
}

func TestIdealEvictionAtLeastAsFastAsUE(t *testing.T) {
	w := scanWorkload(96, 8, 256, 8)
	ue, err := Run(testConfig(config.UE), w)
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := Run(testConfig(config.IdealEviction), w)
	if err != nil {
		t.Fatal(err)
	}
	// Ideal eviction is a strict lower bound on eviction cost.
	if float64(ideal.Cycles) > float64(ue.Cycles)*1.05 {
		t.Fatalf("ideal eviction (%d) slower than UE (%d)", ideal.Cycles, ue.Cycles)
	}
}

func TestTOReducesBatchCount(t *testing.T) {
	// The paper's regime: one maximal thread block per SM, so the +1
	// oversubscribed block doubles the fault producers. The paper reports
	// a 51% batch-count reduction; this configuration reproduces it.
	w := scanWorkload(96, 16, 1024, 8)
	cfg := testConfig(config.Baseline)
	cfg.GPU.NumSMs = 2
	base, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	cfgTO := cfg
	cfgTO.Policy = config.TO
	to, err := Run(cfgTO, w)
	if err != nil {
		t.Fatal(err)
	}
	if to.ContextSwitches == 0 {
		t.Fatal("TO performed no context switches")
	}
	if float64(to.NumBatches()) > 0.7*float64(base.NumBatches()) {
		t.Fatalf("TO batches = %d, baseline %d; expected at least a 30%% reduction",
			to.NumBatches(), base.NumBatches())
	}
	if to.MeanBatchPages() < base.MeanBatchPages()*0.9 {
		t.Fatalf("TO mean batch pages %.1f collapsed versus baseline %.1f",
			to.MeanBatchPages(), base.MeanBatchPages())
	}
}

func TestDeterminism(t *testing.T) {
	w := scanWorkload(64, 8, 256, 5)
	a, err := Run(testConfig(config.TOUE), w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testConfig(config.TOUE), w)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Migrations != b.Migrations || a.NumBatches() != b.NumBatches() {
		t.Fatalf("same config diverged: %d/%d cycles, %d/%d migrations, %d/%d batches",
			a.Cycles, b.Cycles, a.Migrations, b.Migrations, a.NumBatches(), b.NumBatches())
	}
}

func TestETCRuns(t *testing.T) {
	w := scanWorkload(64, 8, 256, 6)
	stats, err := Run(testConfig(config.ETC), w)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cycles == 0 {
		t.Fatal("ETC run recorded zero cycles")
	}
}

func TestRuntimeFaultDedup(t *testing.T) {
	w := scanWorkload(32, 4, 256, 4)
	cfg := testConfig(config.Baseline)
	m, err := NewMachine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	m.RT.RaiseFault(7)
	m.RT.RaiseFault(7)
	m.RT.RaiseFault(8)
	if got := m.RT.PendingFaults(); got != 2 {
		t.Fatalf("pending faults = %d, want 2 (page 7 deduplicated)", got)
	}
}

func TestMergeSorted(t *testing.T) {
	got := mergeSorted([]uint64{1, 4, 9}, []uint64{2, 3, 10})
	want := []uint64{1, 2, 3, 4, 9, 10}
	if len(got) != len(want) {
		t.Fatalf("mergeSorted = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mergeSorted = %v, want %v", got, want)
		}
	}
}

func TestWorkloadWithoutKernelsRejected(t *testing.T) {
	sp := layout.NewSpace(64 << 10)
	sp.Alloc("x", 4, 10)
	w := &trace.Workload{Name: "empty", Space: sp}
	if _, err := NewMachine(config.Default(), w); err == nil {
		t.Fatal("kernel-less workload accepted")
	}
}
