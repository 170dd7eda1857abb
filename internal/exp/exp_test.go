package exp

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"uvmsim/internal/config"
	"uvmsim/internal/harness"
	"uvmsim/internal/trace"
	"uvmsim/internal/workload"
)

// testRunner builds a runner at a scale where one simulation takes about a
// second, scoped to a single workload, with the oversubscription sweep
// trimmed to ratios that terminate quickly at this scale.
func testRunner() *Runner {
	p := workload.Default()
	p.Vertices = 1 << 18
	p.AvgDegree = 8
	r := NewRunner(p, config.Default())
	r.Suite = []string{"BFS-TTC"}
	r.Ratios = []float64{0.5, 1.0}
	return r
}

// skipSlowUnderRace skips simulation-heavy, single-goroutine tests when
// the race detector is on: they spend minutes instrumenting code that
// never runs concurrently. Race coverage of the shared Runner/driver
// machinery comes from the harness tests (harness_test.go), which sweep
// real grids through the worker pool at a smaller scale.
func skipSlowUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("simulation-heavy and single-goroutine; raced via the harness tests instead")
	}
}

// analysisRunner builds a tiny runner for drivers that never simulate
// (table1, fig01 working-set analysis).
func analysisRunner() *Runner {
	p := workload.Default()
	p.Vertices = 1 << 12
	p.AvgDegree = 6
	p.RegularElems = 1 << 12
	return NewRunner(p, config.Default())
}

func TestTable1(t *testing.T) {
	tab, err := Table1(analysisRunner())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"16 SMs", "1024 entries", "64KB page size", "15.75GB/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q", want)
		}
	}
}

func TestFig01ShapesMatchPaper(t *testing.T) {
	r := analysisRunner()
	tab, err := Fig01(r)
	if err != nil {
		t.Fatal(err)
	}
	// Parse the 1-SM column for one regular and one irregular workload.
	var regAt1, irrAt1 float64
	for _, row := range tab.Rows {
		v := parsePct(t, row[2])
		if row[0] == "GM" {
			regAt1 = v
		}
		if row[0] == "PR" {
			irrAt1 = v
		}
	}
	// Regular: working set at 1 SM should be a small fraction; irregular
	// should stay large (shared pages) — Figure 1's contrast.
	if regAt1 > 0.5 {
		t.Errorf("regular working set at 1 SM = %.2f; expected well under the footprint", regAt1)
	}
	if irrAt1 < 0.5 {
		t.Errorf("irregular working set at 1 SM = %.2f; expected most of the footprint", irrAt1)
	}
	if irrAt1 <= regAt1 {
		t.Errorf("irregular (%v) not above regular (%v) at 1 SM", irrAt1, regAt1)
	}
}

func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "%")
	var v float64
	if _, err := fmtSscan(s, &v); err != nil {
		t.Fatalf("bad percent cell %q", s)
	}
	return v / 100
}

func TestRunnerMemoizes(t *testing.T) {
	skipSlowUnderRace(t)
	r := testRunner()
	a, err := r.Run("BFS-TTC", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run("BFS-TTC", nil)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical configs were not memoized")
	}
	c, err := r.Run("BFS-TTC", func(cfg *config.Config) { cfg.Policy = config.UE })
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("different policies shared a memoized result")
	}
}

func TestFig03Monotonicity(t *testing.T) {
	skipSlowUnderRace(t)
	r := testRunner()
	tab, err := Fig03(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("fig03 produced no buckets")
	}
	// The paper's shape: per-page time in the smallest bucket is the
	// largest (fixed fault-handling cost dominates small batches).
	first := cellFloat(t, tab.Rows[0][2])
	last := cellFloat(t, tab.Rows[len(tab.Rows)-1][2])
	if len(tab.Rows) > 1 && first <= last {
		t.Errorf("per-page time not decreasing: first bucket %.2f, last %.2f", first, last)
	}
}

func TestFig11To15ShareRunsAndReportShapes(t *testing.T) {
	skipSlowUnderRace(t)
	r := testRunner()
	f11, err := Fig11(r)
	if err != nil {
		t.Fatal(err)
	}
	avg := f11.Rows[len(f11.Rows)-1]
	ue := cellFloat(t, avg[4])
	toue := cellFloat(t, avg[5])
	if ue <= 1.0 {
		t.Errorf("UE speedup = %.2f, expected > 1 (eviction off the critical path)", ue)
	}
	if toue <= 1.0 {
		t.Errorf("TO+UE speedup = %.2f, expected > 1", toue)
	}

	f14, err := Fig14(r)
	if err != nil {
		t.Fatal(err)
	}
	avg14 := f14.Rows[len(f14.Rows)-1]
	if v := cellFloat(t, avg14[3]); v >= 1.0 {
		t.Errorf("TO+UE batch processing time = %.2f of baseline, expected < 1", v)
	}

	if _, err := Fig12(r); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig13(r); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig15(r); err != nil {
		t.Fatal(err)
	}
}

func TestFig17UsesRatioOverride(t *testing.T) {
	skipSlowUnderRace(t)
	r := testRunner()
	tab, err := Fig17(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("fig17 rows = %d, want 2 (overridden ratios)", len(tab.Rows))
	}
	// At ratio 1.0 the relative execution time is 1 and UE ~1.
	lastRow := tab.Rows[len(tab.Rows)-1]
	if rel := cellFloat(t, strings.TrimPrefix(lastRow[1], ">=")); math.Abs(rel-1) > 0.05 {
		t.Errorf("relative time at ratio 1.0 = %v, want ~1", rel)
	}
}

func TestDriveUnknownID(t *testing.T) {
	if _, err := Drive("fig99", testRunner()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestGeoMean(t *testing.T) {
	if v := GeoMean([]float64{2, 8}); math.Abs(v-4) > 1e-9 {
		t.Fatalf("GeoMean(2,8) = %v, want 4", v)
	}
	if v := GeoMean([]float64{3}); math.Abs(v-3) > 1e-9 {
		t.Fatalf("GeoMean(3) = %v", v)
	}
	if v := GeoMean(nil); v != 0 {
		t.Fatalf("GeoMean(nil) = %v", v)
	}
	if v := GeoMean([]float64{1.5, 1.5, 1.5, 1.5}); math.Abs(v-1.5) > 1e-9 {
		t.Fatalf("GeoMean(1.5 x4) = %v", v)
	}
	// Eleven equal values below 1, the Fig. 11 shape: a product this
	// small once sent an iterative root off to 1e6 and beyond.
	for _, x := range []float64{0.60, 0.65, 0.70, 0.81} {
		vals := make([]float64, 11)
		for i := range vals {
			vals[i] = x
		}
		if v := GeoMean(vals); math.Abs(v-x) > 1e-12*x {
			t.Errorf("GeoMean(%v x11) = %v", x, v)
		}
	}
	mixed := []float64{0.3, 0.5, 0.9, 1.2, 2, 3}
	want := math.Pow(0.3*0.5*0.9*1.2*2*3, 1.0/6)
	if v := GeoMean(mixed); math.Abs(v-want) > 1e-12*want {
		t.Errorf("GeoMean(%v) = %v, want %v", mixed, v, want)
	}
	// A zero speedup (a run with no cycles) must not vanish from the mean.
	if v := GeoMean([]float64{0.5, 2, 0}); !math.IsNaN(v) {
		t.Errorf("GeoMean(0.5, 2, 0) = %v, want NaN", v)
	}
}

func TestMean(t *testing.T) {
	if v := Mean([]float64{1, 2, 3}); v != 2 {
		t.Fatalf("Mean = %v", v)
	}
	if v := Mean(nil); v != 0 {
		t.Fatalf("Mean(nil) = %v", v)
	}
}

func TestTableFprintAlignment(t *testing.T) {
	tab := &Table{
		ID:      "x",
		Title:   "t",
		Columns: []string{"A", "LongColumn"},
		Rows:    [][]string{{"aaaa", "b"}},
		Notes:   []string{"n"},
	}
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, "== x: t ==") || !strings.Contains(out, "note: n") {
		t.Fatalf("bad table rendering:\n%s", out)
	}
}

// cellFloat parses a numeric table cell.
func cellFloat(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	if _, err := fmtSscan(s, &v); err != nil {
		t.Fatalf("bad numeric cell %q", s)
	}
	return v
}

// fmtSscan avoids importing fmt solely in helpers above.
func fmtSscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}

func TestTableCSV(t *testing.T) {
	tab := &Table{
		ID:      "x",
		Columns: []string{"A", "B"},
		Rows:    [][]string{{"plain", `has,comma`}, {`has"quote`, "v"}},
	}
	var buf bytes.Buffer
	if err := tab.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "A,B\nplain,\"has,comma\"\n\"has\"\"quote\",v\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestExtRunahead(t *testing.T) {
	skipSlowUnderRace(t)
	r := testRunner()
	tab, err := Drive("ext-runahead", r)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 { // one workload + AVERAGE
		t.Fatalf("ext-runahead rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		for _, cell := range row[1:] {
			if v := cellFloat(t, cell); v <= 0 {
				t.Fatalf("non-positive speedup %q in %v", cell, row)
			}
		}
	}
}

func TestFig05Driver(t *testing.T) {
	skipSlowUnderRace(t)
	r := testRunner()
	tab, err := Fig05(r)
	if err != nil {
		t.Fatal(err)
	}
	// One workload + AVERAGE; relative performance below 1 (switching
	// costs without paging to hide it).
	if len(tab.Rows) != 2 {
		t.Fatalf("fig05 rows = %d", len(tab.Rows))
	}
	rel := cellFloat(t, tab.Rows[0][1])
	if rel >= 1.0 || rel <= 0 {
		t.Fatalf("traditional-switch relative perf = %v, want in (0, 1)", rel)
	}
}

func TestFig08Driver(t *testing.T) {
	skipSlowUnderRace(t)
	r := testRunner()
	tab, err := Fig08(r)
	if err != nil {
		t.Fatal(err)
	}
	base := cellFloat(t, tab.Rows[0][1])
	ideal := cellFloat(t, tab.Rows[0][2])
	if base >= 1.0 {
		t.Fatalf("oversubscribed baseline = %v of unlimited, want < 1", base)
	}
	if ideal < base {
		t.Fatalf("ideal eviction (%v) below baseline (%v)", ideal, base)
	}
}

func TestFig18Driver(t *testing.T) {
	skipSlowUnderRace(t)
	r := testRunner()
	tab, err := Fig18(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("fig18 rows = %d, want 4", len(tab.Rows))
	}
	// The monotonic-growth shape is a property of the paper-scale regime
	// (checked in EXPERIMENTS.md); at test scale only structural
	// integrity is asserted: a positive speedup per handling-time point.
	for _, row := range tab.Rows {
		if v := cellFloat(t, row[1]); v <= 0 {
			t.Fatalf("non-positive speedup %q at %sus", row[1], row[0])
		}
	}
}

// TestWorkloadKeyStructural: two runners at different warp sizes (or
// forms) sharing one BuildCache must occupy distinct entries, because
// the key — trace.ArtifactKey — carries the codec version and warp size
// structurally. Nothing but the key keeps a warp-16 compile from
// serving a warp-32 simulation.
func TestWorkloadKeyStructural(t *testing.T) {
	p := workload.Default()
	p.Vertices = 1 << 10
	p.AvgDegree = 4
	shared := harness.NewBuildCache()

	r32 := NewRunner(p, config.Default())
	r32.Builds = shared
	base16 := config.Default()
	base16.GPU.WarpSize = 16
	r16 := NewRunner(p, base16)
	r16.Builds = shared
	live := NewRunner(p, config.Default())
	live.Builds = shared
	live.Live = true

	for _, r := range []*Runner{r32, r16, live} {
		if _, err := r.Workload("BFS-TTC"); err != nil {
			t.Fatal(err)
		}
	}
	if n := shared.Len(); n != 3 {
		t.Fatalf("shared build cache holds %d entries for (w32, w16, live), want 3 — key collision", n)
	}

	k32, err := r32.workloadKey("BFS-TTC")
	if err != nil {
		t.Fatal(err)
	}
	k16, _ := r16.workloadKey("BFS-TTC")
	kLive, _ := live.workloadKey("BFS-TTC")
	if !strings.HasPrefix(k32, "uvmcmp1|") || !strings.HasSuffix(k32, "|w32") {
		t.Fatalf("compiled key %q lacks structural codec/warp components", k32)
	}
	if !strings.HasSuffix(k16, "|w16") {
		t.Fatalf("warp-16 key %q", k16)
	}
	if !strings.HasPrefix(kLive, "live|") {
		t.Fatalf("live key %q not namespaced", kLive)
	}
}

// TestRunnerWorkloadDiskTier pins the exp wiring end to end: a runner
// whose BuildCache has an artifact store persists its compile, and a
// fresh runner (fresh process, same params) over the same store loads it
// with zero builds and replays identically.
func TestRunnerWorkloadDiskTier(t *testing.T) {
	store, err := trace.OpenArtifactStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := workload.Default()
	p.Vertices = 1 << 10
	p.AvgDegree = 4

	r1 := NewRunner(p, config.Default())
	r1.Builds.SetDisk(store)
	if _, err := r1.Workload("BFS-TTC"); err != nil {
		t.Fatal(err)
	}
	if st := r1.Builds.Stats(); st.Builds != 1 || st.DiskSaves != 1 {
		t.Fatalf("first runner stats: %+v", st)
	}

	r2 := NewRunner(p, config.Default())
	r2.Builds.SetDisk(store)
	w2, err := r2.Workload("BFS-TTC")
	if err != nil {
		t.Fatal(err)
	}
	if st := r2.Builds.Stats(); st.Builds != 0 || st.DiskLoads != 1 {
		t.Fatalf("second runner rebuilt instead of loading: %+v", st)
	}
	w1, _ := r1.Workload("BFS-TTC")
	if w1.FootprintBytes() != w2.FootprintBytes() || len(w1.Kernels) != len(w2.Kernels) {
		t.Fatal("disk-loaded workload differs from the built one")
	}
}

// TestEvictedWorkloadIsCollected pins that the build cache's byte budget
// frees what it evicts: once a compiled workload leaves the cache,
// nothing else in the runner, its replay view included, may keep its
// arrays alive.
func TestEvictedWorkloadIsCollected(t *testing.T) {
	p := workload.Default()
	p.Vertices = 1 << 10
	p.AvgDegree = 4
	r := NewRunner(p, config.Default())
	r.Builds.SetLimit(1) // each new entry evicts the one before
	if _, err := r.Workload("BFS-TTC"); err != nil {
		t.Fatal(err)
	}
	key, err := r.workloadKey("BFS-TTC")
	if err != nil {
		t.Fatal(err)
	}
	v, err := r.Builds.Get(key, func() (any, error) { return nil, fmt.Errorf("BFS-TTC was not cached") })
	if err != nil {
		t.Fatal(err)
	}
	collected := make(chan struct{})
	runtime.SetFinalizer(&v.(*trace.Compiled).Kernels()[0], func(*trace.CompiledKernel) { close(collected) })
	v = nil

	if _, err := r.Workload("PR"); err != nil {
		t.Fatal(err)
	}
	if n := r.Builds.Stats().Evictions; n != 1 {
		t.Fatalf("%d evictions, want 1", n)
	}
	gone := false
	for i := 0; i < 50 && !gone; i++ {
		runtime.GC()
		select {
		case <-collected:
			gone = true
		case <-time.After(20 * time.Millisecond):
		}
	}
	runtime.KeepAlive(r) // the runner is live; only the evicted entry is not
	if !gone {
		t.Fatal("the evicted BFS-TTC compiled arrays are still reachable")
	}
}

// TestCapMarks pins the marking rule for cells computed from runs stopped
// at the cycle cap: a speedup keeps its direction, anything else is
// approximate, and an average inherits any marked input.
func TestCapMarks(t *testing.T) {
	for _, tc := range []struct {
		baseLB, variantLB bool
		speedup, approx   string
	}{
		{false, false, "", ""},
		{true, false, ">=", "~"},
		{false, true, "<=", "~"},
		{true, true, "~", "~"},
	} {
		if got := speedupMark(tc.baseLB, tc.variantLB); got != tc.speedup {
			t.Errorf("speedupMark(%v, %v) = %q, want %q", tc.baseLB, tc.variantLB, got, tc.speedup)
		}
		if got := approxMark(tc.baseLB, tc.variantLB); got != tc.approx {
			t.Errorf("approxMark(%v, %v) = %q, want %q", tc.baseLB, tc.variantLB, got, tc.approx)
		}
	}
	var col markedCol
	if got := col.add(2, "", f2); got != "2.00" {
		t.Errorf("unmarked cell = %q", got)
	}
	if got := col.avg(Mean, f2); got != "2.00" {
		t.Errorf("average of unmarked inputs = %q, want 2.00", got)
	}
	if got := col.add(4, ">=", f2); got != ">=4.00" {
		t.Errorf("marked cell = %q", got)
	}
	if got := col.avg(Mean, f2); got != "~3.00" {
		t.Errorf("average with a marked input = %q, want ~3.00", got)
	}
}

// TestCappedPointsMarkFigures11To15: with a cycle cap that stops every
// point, Figures 11-15 render instead of failing, every data cell is
// marked, and each table carries the capped note.
func TestCappedPointsMarkFigures11To15(t *testing.T) {
	r := tinyRunner(harness.New(harness.Options{Jobs: 2}))
	r.Suite = []string{"BFS-TTC"}
	r.Base.MaxCycles = 500_000
	for _, id := range []string{"fig11", "fig12", "fig13", "fig14", "fig15"} {
		tab, err := Drive(id, r)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, row := range tab.Rows {
			for _, cell := range row[1:] {
				if cell != "" && !strings.HasPrefix(cell, "~") &&
					!strings.HasPrefix(cell, ">=") && !strings.HasPrefix(cell, "<=") {
					t.Errorf("%s: unmarked cell %q in row %v", id, cell, row)
				}
			}
		}
		if n := len(tab.Notes); n == 0 || tab.Notes[n-1] != cappedNote {
			t.Errorf("%s: notes %q lack the capped note", id, tab.Notes)
		}
	}
}
