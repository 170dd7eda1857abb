package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sort"
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/telemetry"
)

// overlapPlanner is an adversarial planner whose plan overlaps the
// faulted set — the contract violation batch assembly must survive.
type overlapPlanner struct{ plan []uint64 }

func (p *overlapPlanner) Plan(faulted []uint64, isResident, inSpace func(uint64) bool) []uint64 {
	return p.plan
}

func TestMergeSortedDedupsOverlap(t *testing.T) {
	// Property: for any pair of sorted inputs, overlapping or not, the
	// merge emits each distinct page exactly once, in ascending order.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		mk := func(n int) []uint64 {
			set := map[uint64]struct{}{}
			for i := 0; i < n; i++ {
				set[uint64(rng.Intn(50))] = struct{}{}
			}
			out := make([]uint64, 0, len(set))
			for v := range set {
				out = append(out, v)
			}
			sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
			return out
		}
		a, b := mk(rng.Intn(20)), mk(rng.Intn(20))
		got := mergeSorted(a, b)
		want := map[uint64]struct{}{}
		for _, v := range a {
			want[v] = struct{}{}
		}
		for _, v := range b {
			want[v] = struct{}{}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: mergeSorted(%v, %v) = %v, want %d distinct pages",
				trial, a, b, got, len(want))
		}
		for i, v := range got {
			if _, ok := want[v]; !ok {
				t.Fatalf("trial %d: unexpected page %d in %v", trial, v, got)
			}
			if i > 0 && got[i-1] >= v {
				t.Fatalf("trial %d: merge not strictly ascending: %v", trial, got)
			}
		}
	}
}

func TestAdversarialPlannerSchedulesEachPageOnce(t *testing.T) {
	// Regression test for the double-migration hazard: a planner whose
	// output overlaps the faulted set must not schedule completeMigration
	// twice for one page (which would double-count Migrations and batch
	// bytes, and trip the in-flight invariant at batch end).
	rt, eng, cfg := bareRuntime(config.Baseline, 64)
	cfg.UVM.Prefetch = true                            // keep the planner consulted
	rt.pref = &overlapPlanner{plan: []uint64{3, 5, 9}} // 3 and 9 overlap
	for _, pg := range []uint64{1, 3, 9} {
		rt.RaiseFault(pg)
	}
	eng.Run() // panics at endBatch if any page was scheduled twice
	if rt.stats.Migrations != 4 {
		t.Fatalf("migrations = %d, want 4 (pages 1,3,5,9 each once)", rt.stats.Migrations)
	}
	if n := rt.stats.NumBatches(); n != 1 {
		t.Fatalf("batches = %d, want 1", n)
	}
	b := rt.stats.Batches[0]
	if b.Pages != 4 || b.Bytes != 4*cfg.UVM.PageBytes {
		t.Fatalf("batch pages=%d bytes=%d, want 4 pages / %d bytes (no double count)",
			b.Pages, b.Bytes, 4*cfg.UVM.PageBytes)
	}
}

func TestPrefetcherPlanDisjointFromInput(t *testing.T) {
	// The real prefetcher's contract: its plan never contains a faulted
	// page. Dense faults in one block force maximal group filling.
	p := NewPrefetcher(16, 0.5)
	faulted := []uint64{0, 1, 2, 3, 8, 9}
	plan := p.Plan(faulted, func(uint64) bool { return false }, func(uint64) bool { return true })
	if len(plan) == 0 {
		t.Fatal("dense faults produced no prefetches")
	}
	inFaulted := map[uint64]bool{}
	for _, pg := range faulted {
		inFaulted[pg] = true
	}
	for _, pg := range plan {
		if inFaulted[pg] {
			t.Fatalf("plan %v contains faulted page %d", plan, pg)
		}
	}
}

func TestFaultBufferOverflowDrainsFIFO(t *testing.T) {
	// Overflow pages must be drained in fault-raise (FIFO) order by the
	// follow-on batch, and the follow-on batch must start the cycle the
	// first ends — no second ISR delay. The telemetry stream pins both:
	// batch spans give the boundaries, migration spans give the pages.
	rt, eng, cfg := bareRuntime(config.Baseline, 8192)
	cfg.UVM.Prefetch = false
	rt.pref = nil
	tr := telemetry.NewTracer(eng)
	rt.SetTracer(tr)

	n := cfg.UVM.FaultBufferEntries
	total := n + 40
	// Raise faults in descending page order so FIFO order differs from
	// page order: the first n raised (highest pages) must fill batch 0.
	for i := 0; i < total; i++ {
		rt.RaiseFault(uint64(total - i))
	}
	eng.Run()

	if got := rt.stats.NumBatches(); got != 2 {
		t.Fatalf("batches = %d, want 2", got)
	}
	b0, b1 := rt.stats.Batches[0], rt.stats.Batches[1]
	if b0.Start != isrDelayCycles {
		t.Fatalf("first batch at %d, want one ISR delay (%d)", b0.Start, isrDelayCycles)
	}
	if b1.Start != b0.End {
		t.Fatalf("follow-on batch at %d, want %d (no second ISR delay)", b1.Start, b0.End)
	}

	// Partition migration spans by batch window and check the FIFO split:
	// batch 0 got the first n raised pages (total down to total-n+1),
	// batch 1 the remaining 40 (total-n down to 1).
	var batch0, batch1 []uint64
	for _, ev := range tr.Events() {
		if ev.Name != "migrate" {
			continue
		}
		pg := ev.Args["page"].(uint64)
		switch {
		case ev.TS >= b0.Start && ev.TS+ev.Dur <= b0.End:
			batch0 = append(batch0, pg)
		case ev.TS >= b1.Start && ev.TS+ev.Dur <= b1.End:
			batch1 = append(batch1, pg)
		default:
			t.Fatalf("migration of page %d at [%d,%d] outside both batch spans", pg, ev.TS, ev.TS+ev.Dur)
		}
	}
	if len(batch0) != n || len(batch1) != 40 {
		t.Fatalf("batch migration counts = %d/%d, want %d/40", len(batch0), len(batch1), n)
	}
	for _, pg := range batch0 {
		if pg <= uint64(total-n) {
			t.Fatalf("page %d in first batch; FIFO drain should leave pages 1..%d for the follow-on", pg, total-n)
		}
	}
	for _, pg := range batch1 {
		if pg > uint64(total-n) {
			t.Fatalf("page %d in follow-on batch; it was among the first %d raised", pg, n)
		}
	}
}

func TestControllerBackoffAndRecoveryTraced(t *testing.T) {
	// Drive the controller's degree to 0 through collapsing lifetimes,
	// then recover it, and require every degree change to appear in the
	// telemetry stream as a to_degree counter event.
	rt, eng, cfg := bareRuntime(config.TO, 100)
	tr := telemetry.NewTracer(eng)
	rt.SetTracer(tr)
	rt.StartController() // emits the initial degree sample
	step := func(sum, count uint64) {
		rt.winSum, rt.winCount = sum, count
		rt.controllerStep()
	}
	step(1_000_000, 10) // first window: baseline established
	step(100_000, 10)   // collapse: 1 -> 0
	if rt.OversubDegree() != 0 {
		t.Fatalf("degree after collapse = %d, want 0", rt.OversubDegree())
	}
	step(500_000, 10)   // strong growth: 0 -> 1
	step(2_000_000, 10) // growth continues: 1 -> 2
	if rt.OversubDegree() != 2 {
		t.Fatalf("degree after recovery = %d, want 2", rt.OversubDegree())
	}
	rt.Stop()
	if rt.stats.TOFinalDegree != 2 {
		t.Fatalf("stats final degree = %d, want 2", rt.stats.TOFinalDegree)
	}
	if mean, ok := rt.stats.TOMeanDegree(); !ok || mean <= 0 {
		t.Fatalf("mean degree = %v ok=%v, want positive", mean, ok)
	}

	var degrees []float64
	for _, ev := range tr.Events() {
		if ev.Phase == 'C' && ev.Name == "to_degree" {
			degrees = append(degrees, ev.Value)
		}
	}
	want := []float64{1, 0, 1, 2} // initial, collapse, recovery, growth
	if len(degrees) != len(want) {
		t.Fatalf("to_degree events = %v, want %v", degrees, want)
	}
	for i := range want {
		if degrees[i] != want[i] {
			t.Fatalf("to_degree events = %v, want %v", degrees, want)
		}
	}
	if cfg.UVM.MaxOversubBlocks < 2 {
		t.Fatalf("test assumes MaxOversubBlocks >= 2, got %d", cfg.UVM.MaxOversubBlocks)
	}
}

func TestTracedRunNestsMigrationsInBatchSpans(t *testing.T) {
	// End-to-end structural check on a real oversubscribed run: every
	// batch lifecycle event is present, migrations nest inside their
	// batch's span, and the exported JSON carries the Chrome trace-event
	// required fields.
	w := scanWorkload(64, 8, 256, 6)
	cfg := testConfig(config.TOUE)
	cfg.UVM.OversubscriptionRatio = 0.5
	stats, tr, err := RunTraced(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Evictions == 0 {
		t.Fatal("test needs eviction pressure")
	}

	type span struct{ start, end uint64 }
	var batches []span
	var migrations, evictions, kernels int
	for _, ev := range tr.Events() {
		switch ev.Name {
		case "batch":
			batches = append(batches, span{ev.TS, ev.TS + ev.Dur})
			if ev.Args["id"] == nil || ev.Args["faults"] == nil || ev.Args["pages"] == nil {
				t.Fatalf("batch span missing args: %+v", ev.Args)
			}
		case "migrate", "migrate (prefetch)":
			migrations++
		}
		if ev.Track == telemetry.TrackKernels && ev.Phase == 'X' {
			kernels++
		}
		if ev.Name == "evict" || ev.Name == "evict (preemptive)" {
			evictions++
		}
	}
	if len(batches) != stats.NumBatches() {
		t.Fatalf("batch spans = %d, stats batches = %d", len(batches), stats.NumBatches())
	}
	if migrations != int(stats.Migrations) {
		t.Fatalf("migration spans = %d, stats migrations = %d", migrations, stats.Migrations)
	}
	if evictions != int(stats.Evictions) {
		t.Fatalf("eviction spans = %d, stats evictions = %d", evictions, stats.Evictions)
	}
	if kernels != len(w.Kernels()) {
		t.Fatalf("kernel spans = %d, want %d", kernels, len(w.Kernels()))
	}
	// Containment: every migration span lies inside some batch span.
	for _, ev := range tr.Events() {
		if ev.Name != "migrate" && ev.Name != "migrate (prefetch)" {
			continue
		}
		contained := false
		for _, b := range batches {
			if ev.TS >= b.start && ev.TS+ev.Dur <= b.end {
				contained = true
				break
			}
		}
		if !contained {
			t.Fatalf("migration at [%d,%d] not nested in any batch span", ev.TS, ev.TS+ev.Dur)
		}
	}

	// Exported JSON: required Chrome trace-event fields on every event.
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			TS   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
			PID  *int     `json:"pid"`
			TID  *int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	for _, e := range f.TraceEvents {
		if e.Name == "" || e.Ph == "" || e.TS == nil || e.PID == nil || e.TID == nil {
			t.Fatalf("exported event missing required fields: %+v", e)
		}
		if e.Ph == "X" && e.Dur == nil {
			t.Fatalf("complete event without dur: %+v", e)
		}
	}
}

func TestTracingDoesNotPerturbSimulation(t *testing.T) {
	// The determinism guard behind "experiment outputs stay byte-identical
	// with tracing off": a traced run and an untraced run of the same
	// configuration produce identical statistics.
	w := scanWorkload(64, 8, 256, 5)
	cfg := testConfig(config.TOUE)
	cfg.UVM.OversubscriptionRatio = 0.5
	plain, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	traced, tr, err := RunTraced(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("traced run recorded no events")
	}
	a, _ := json.Marshal(plain)
	b, _ := json.Marshal(traced)
	if !bytes.Equal(a, b) {
		t.Fatalf("traced run diverged from untraced:\n%s\nvs\n%s", a, b)
	}
}
