package core

import (
	"testing"

	"uvmsim/internal/config"
)

// maxCompiledRunAllocs is the allocation-regression budget for one full
// end-to-end simulation of the test-scale scan workload replayed from a
// compiled trace (the sweep configuration: build once, simulate many).
// The measured figure is ~1.75k allocations — machine construction (page
// table, TLBs, LRU sets, the per-domain engines, shards and their event
// pools of the multi-domain system), one warp set per dispatched block,
// and first-use warm-up of the event pools; each warp holds its cursor
// by value, and the per-access replay path itself is allocation-free.
// The cap's headroom covers benign construction drift, while a single
// per-access or per-fault allocation sneaking back into the hot path adds
// at least one allocation per memory instruction (~400 here) and fails
// loudly.
const maxCompiledRunAllocs = 1886

// TestCompiledRunAllocationBudget is the CI guard for the compiled
// replay path's allocation behavior. It fails when an end-to-end run
// from a shared compiled trace exceeds maxCompiledRunAllocs.
func TestCompiledRunAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation in -short mode")
	}
	cw := scanWorkload(64, 8, 256, 6)
	cfg := testConfig(config.TOUE)

	// Warm up once so lazily-initialized process state (sync pools, map
	// growth inside shared structures) does not count against the run.
	if _, err := Run(cfg, cw); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Run(cfg, cw); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("compiled end-to-end run: %.0f allocs/op (budget %d)", allocs, maxCompiledRunAllocs)
	if allocs > maxCompiledRunAllocs {
		t.Errorf("compiled end-to-end run allocates %.0f times/op, budget is %d; "+
			"a hot-path allocation has probably regressed (rerun with -memprofile and read alloc_objects)",
			allocs, maxCompiledRunAllocs)
	}
}
