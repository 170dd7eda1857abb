package workload

import (
	"encoding/json"
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/core"
)

// fidelityParams keeps the full-suite simulation sweep below test
// timeouts while still exercising every builder's access patterns.
func fidelityParams() Params {
	p := smallParams()
	p.Vertices = 1024
	p.AvgDegree = 4
	p.RegularElems = 1 << 12
	return p
}

// TestCompiledReplayFidelity holds the simulator to the trace it
// replays: for every workload in the suite, a run under thread
// oversubscription and eviction must issue each compiled access exactly
// once — no warp skipped or replayed twice, whatever the context
// switches and fault replays in between. (That compiled replay matches
// the generators is TestCatalogTraceDigests' and core's
// TestSimulationDigests' to check.)
func TestCompiledReplayFidelity(t *testing.T) {
	p := fidelityParams()
	cfg := config.Default()
	cfg.Policy = config.TOUE
	cfg.GPU.NumSMs = 4
	cfg.MaxCycles = 2_000_000_000
	// Tiny footprints thrash pathologically at the default 50%
	// oversubscription; mild pressure still exercises eviction while
	// terminating quickly.
	cfg.UVM.OversubscriptionRatio = 0.95

	for _, name := range All() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c, err := BuildCompiled(name, p, cfg.GPU.WarpSize)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			stats, err := core.Run(cfg, c)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if stats.Instrs != uint64(c.Accesses()) {
				t.Errorf("issued %d instructions of a %d-access trace", stats.Instrs, c.Accesses())
			}
		})
	}
}

// TestCompiledWorkloadReplaysRepeatedly pins that one Compiled artifact
// can back many simulations: the cache shares it across sweep jobs, so a
// second run over the same arrays must see the same accesses (cursors
// must not mutate the backing pool).
func TestCompiledWorkloadReplaysRepeatedly(t *testing.T) {
	p := fidelityParams()
	compiled, err := BuildCompiled("BFS-TWC", p, 32)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	cfg.Policy = config.TOUE
	cfg.GPU.NumSMs = 2
	cfg.MaxCycles = 2_000_000_000
	cfg.UVM.OversubscriptionRatio = 0.95

	var first string
	for i := 0; i < 2; i++ {
		stats, err := core.Run(cfg, compiled)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		b, err := json.Marshal(stats.Summary())
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = string(b)
		} else if string(b) != first {
			t.Errorf("run %d diverged from run 0\nrun0: %s\nrun%d: %s", i, first, i, b)
		}
	}
}
