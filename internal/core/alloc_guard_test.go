package core

import (
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/trace"
)

// maxCompiledRunAllocs is the allocation-regression budget for one full
// end-to-end simulation of the test-scale scan workload replayed from a
// compiled trace (the sweep configuration: build once, simulate many).
// The measured figure is ~1.8k allocations — machine construction (page
// table, TLBs, LRU sets, the per-domain engines, shards and their event
// pools of the multi-domain system), one warp/cursor set per dispatched
// block, and first-use warm-up of the event pools; the per-access replay
// path itself is allocation-free. The cap's headroom covers benign
// construction drift, while a single per-access or per-fault allocation
// sneaking back into the hot path adds at least one allocation per
// memory instruction (~400 here) and fails loudly. Live-stream replay of
// the same workload costs ~11k allocations.
const maxCompiledRunAllocs = 1950

// TestCompiledRunAllocationBudget is the CI guard for the compiled
// replay path's allocation behavior. It fails when an end-to-end run
// from a shared compiled trace exceeds maxCompiledRunAllocs.
func TestCompiledRunAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation in -short mode")
	}
	w := scanWorkload(64, 8, 256, 6)
	c, err := trace.Compile(w, 32)
	if err != nil {
		t.Fatal(err)
	}
	cw := c.Workload()
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

// maxParRunAllocFactor bounds the parallel path's allocations relative to
// the sequential path on the identical machine and workload. The parallel
// run adds only construction-time state (worker goroutines, ready/done
// channels, per-group run queues); message chunks and engine heaps are
// pooled across epochs, so steady-state delivery allocates nothing extra.
const maxParRunAllocFactor = 1.5

// TestParallelRunAllocationBudget is the CI guard for the multi-domain
// engine's parallel delivery path: a par>1 run of the same compiled
// workload on the same 4-shard machine must stay within
// maxParRunAllocFactor of the sequential run. A per-message or per-epoch
// allocation sneaking into the mailbox/flush/speculation machinery adds
// thousands of allocations here and fails loudly.
func TestParallelRunAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation in -short mode")
	}
	w := scanWorkload(64, 16, 256, 6)
	c, err := trace.Compile(w, 32)
	if err != nil {
		t.Fatal(err)
	}
	cw := c.Workload()
	cfg := testConfig(config.TOUE)
	cfg.GPU.NumSMs = 16 // 4 shard domains + hub

	measure := func(par int) float64 {
		// Warm-up, as in the sequential guard.
		if _, err := RunParallel(cfg, cw, par); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := RunParallel(cfg, cw, par); err != nil {
				t.Fatal(err)
			}
		})
	}
	seq := measure(1)
	par := measure(4)
	t.Logf("compiled end-to-end run: seq %.0f allocs/op, par=4 %.0f allocs/op (factor %.2f, budget %.1fx)",
		seq, par, par/seq, maxParRunAllocFactor)
	// Small absolute headroom on top of the ratio: the worker pool's
	// goroutines and channels cost a fixed ~two dozen allocations that
	// should not be able to fail the guard on an otherwise tiny run.
	if par > seq*maxParRunAllocFactor+64 {
		t.Errorf("parallel run allocates %.0f times/op vs %.0f sequential (%.2fx, budget %.1fx); "+
			"a per-message or per-epoch allocation has probably regressed in internal/sim",
			par, seq, par/seq, maxParRunAllocFactor)
	}
	// Absolute backstop: both legs regressing together must still fail.
	if par > 2*maxCompiledRunAllocs {
		t.Errorf("parallel run allocates %.0f times/op, absolute backstop is %d",
			par, 2*maxCompiledRunAllocs)
	}
}
