package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"uvmsim/internal/config"
	"uvmsim/internal/trace"
)

// parEndToEndShape is the intra-run parallelism workload: a compiled scan
// sized for the default 16-SM machine (4 SM clusters, so 4 shard domains
// plus the hub) so every domain stays busy. accessesPerThread sets the run
// length; streams are identical at every worker count, and so — by the
// engine's determinism contract — are the results.
func parEndToEndShape(tb testing.TB, accessesPerThread int) (config.Config, *trace.Workload) {
	tb.Helper()
	cfg := config.Default()
	cfg.MaxCycles = 2_000_000_000
	c, err := trace.Compile(scanWorkload(256, 32, 256, accessesPerThread), cfg.GPU.WarpSize)
	if err != nil {
		tb.Fatal(err)
	}
	return cfg, c.Workload()
}

// BenchmarkParEndToEnd replays the parallelism shape at 1, 2, 4 and 8
// event-engine workers, plus "mono": the same workload at par 1 with every
// SM in one shard domain, the machine's minimal sharding. par=N ÷ par=1 is
// the parallel speedup, bounded by the host's core count (below 4 cores
// the par series measures only overhead); par=1 ÷ mono is the fixed price
// of sharding before a second core can help.
func BenchmarkParEndToEnd(b *testing.B) {
	cfg, w := parEndToEndShape(b, 8)
	run := func(cfg config.Config, workers int) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunParallel(cfg, w, workers); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("par=%d", workers), run(cfg, workers))
	}
	mono := cfg
	mono.GPU.SMsPerDomain = mono.GPU.NumSMs
	b.Run("mono", run(mono, 1))
}

// TestParEndToEndSpeedupMultiCore validates the intra-run parallelism
// claim on real hardware: RunParallel at par=4 must beat the serial
// engine by ≥1.3x on the BenchmarkParEndToEnd workload shape.
// Single-core CI skips it (the correctness half — byte-identical results
// at any worker count — runs everywhere via the par tests); a multi-core
// host runs it as part of the ordinary suite, closing the ROADMAP
// "validate intra-run parallelism on a multi-core host" loop.
func TestParEndToEndSpeedupMultiCore(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock timing test")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the serial/parallel ratio")
	}
	if n, g := runtime.NumCPU(), runtime.GOMAXPROCS(0); n < 4 || g < 4 {
		t.Skipf("needs ≥4 cores for a meaningful par=4 measurement (NumCPU=%d, GOMAXPROCS=%d)", n, g)
	}

	// The BenchmarkParEndToEnd shape, scaled up so one run takes long
	// enough (hundreds of ms) that scheduling noise stays below the 1.3x
	// margin under best-of-3.
	cfg, cw := parEndToEndShape(t, 24)

	measure := func(workers int) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			if _, err := RunParallel(cfg, cw, workers); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		return best
	}
	measure(4) // warm page cache, JIT-free but heap-steady

	serial := measure(1)
	par := measure(4)
	speedup := float64(serial) / float64(par)
	t.Logf("par_end_to_end: serial=%v par4=%v speedup=%.2fx", serial, par, speedup)
	if speedup < 1.3 {
		t.Errorf("par=4 speedup %.2fx < 1.3x (serial %v, par %v)", speedup, serial, par)
	}
}
