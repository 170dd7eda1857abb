package core

import (
	"encoding/json"
	"fmt"
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/metrics"
	"uvmsim/internal/sim"
	"uvmsim/internal/telemetry"
	"uvmsim/internal/workload"
)

// parParams shrinks the workloads enough that running every one three
// times stays cheap while still exercising faults, evictions, and
// context switches.
func parParams() workload.Params {
	p := workload.Default()
	p.Vertices = 1 << 14
	p.AvgDegree = 6
	p.RegularElems = 1 << 15
	return p
}

func summaryJSON(t *testing.T, s *metrics.Stats) string {
	t.Helper()
	b, err := json.Marshal(s.Summary())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestParallelismByteIdentity is the tentpole's correctness contract: for
// every workload, metrics.Summary is byte-identical between sequential
// execution (par=1) and multi-worker execution — and across every
// delivery path the engine owns: fused same-group inserts (par=1),
// mailboxes (par>=2), and speculative hub-light epochs, which the
// no-hub legs turn off to run the conservative schedule alone. Explicit
// event keys fix the total order (cycle, source domain, send sequence) at
// send time, so any divergence between legs is a domain-isolation or
// delivery bug.
func TestParallelismByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations in -short mode")
	}
	p := parParams()
	type variant struct {
		name  string
		ratio float64
	}
	var variants []variant
	// Every workload under demand paging (full-capacity device): covers
	// the fault/wake/translation cross-domain protocol for all trace
	// shapes without the tiny-footprint eviction-thrash regimes some
	// workloads cannot converge in at this scale.
	for _, name := range workload.All() {
		variants = append(variants, variant{name, 1.0})
	}
	// Two under 50% oversubscription: eviction, premature-refault, and
	// TLB-shootdown traffic cross domains too.
	variants = append(variants, variant{"BFS-TTC", 0.5}, variant{"PR", 0.5})
	for _, v := range variants {
		v := v
		t.Run(fmt.Sprintf("%s@%g", v.name, v.ratio), func(t *testing.T) {
			t.Parallel()
			legs := []struct {
				name  string
				par   int
				noHub bool
			}{
				{"par1", 1, false},
				{"par2", 2, false},
				{"par4", 4, false},
				{"par8", 8, false},
				{"par1-nohub", 1, true},
				{"par4-nohub", 4, true},
			}
			var ref string
			for _, l := range legs {
				cfg := config.Default()
				cfg.MaxCycles = 2_000_000_000
				cfg.UVM.OversubscriptionRatio = v.ratio
				w, err := workload.Build(v.name, p)
				if err != nil {
					t.Fatal(err)
				}
				m, err := NewMachine(cfg, w)
				if err != nil {
					t.Fatal(err)
				}
				if l.noHub {
					m.Sys.SetHub(-1)
				}
				m.SetParallelism(l.par)
				stats, err := m.Run()
				if err != nil {
					t.Fatalf("%s: %v", l.name, err)
				}
				got := summaryJSON(t, stats)
				if l.name == "par1" {
					ref = got
					continue
				}
				if got != ref {
					t.Errorf("%s summary diverged from par1\npar1: %s\n%s: %s", l.name, ref, l.name, got)
				}
			}
		})
	}
}

// TestAdaptiveEpochsReduceBarriers pins the point of adaptive widening
// and speculation: on a real faulting workload the schedule must stay at
// or under 560 epoch barriers while dispatching exactly the 981 events of
// the simulation. The deleted fixed-lookahead schedule took 736 epochs on
// this same run. This is the regression guard for epoch overhead: if a
// change quietly degrades the horizon rules back to one-lookahead steps,
// the barrier count climbs past the bound and this fails.
func TestAdaptiveEpochsReduceBarriers(t *testing.T) {
	cfg := testConfig(config.Baseline)
	cfg.GPU.SMsPerDomain = 1 // 4 shard domains on the 4-SM test config
	m, err := NewMachine(cfg, scanWorkload(64, 8, 64, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if e := m.Sys.Epochs(); e > 560 {
		t.Errorf("epochs = %d, want <= 560: widening lost ground", e)
	}
	// Barrier placement never changes the work: the explicit-key total
	// order fixes every dispatched event.
	if d := m.Sys.Dispatched(); d != 981 {
		t.Errorf("dispatched = %d, want 981", d)
	}
}

// TestEffectiveWorkersFallback pins the graceful-degradation rules: the
// machine silently runs inline when parallelism is not requested, not
// profitable (one domain, sub-threshold lookahead), or not supported
// (tracer attached).
func TestEffectiveWorkersFallback(t *testing.T) {
	build := func(mut func(*config.Config)) *Machine {
		t.Helper()
		cfg := testConfig(config.Baseline)
		if mut != nil {
			mut(&cfg)
		}
		w := scanWorkload(16, 4, 64, 2)
		m, err := NewMachine(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	// testConfig has 4 SMs; one SM per domain gives 4 shard domains.
	fourDomains := func(cfg *config.Config) { cfg.GPU.SMsPerDomain = 1 }

	m := build(fourDomains)
	if got := m.effectiveWorkers(); got != 1 {
		t.Errorf("default parallelism: effectiveWorkers = %d, want 1", got)
	}
	m.SetParallelism(4)
	if got := m.effectiveWorkers(); got != 4 {
		t.Errorf("par=4: effectiveWorkers = %d, want 4", got)
	}
	m.SetParallelism(0)
	if got := m.effectiveWorkers(); got != 1 {
		t.Errorf("par=0: effectiveWorkers = %d, want 1", got)
	}

	// A tracer serializes: telemetry callbacks observe cross-domain state.
	m = build(fourDomains)
	m.SetParallelism(4)
	m.AttachTracer(telemetry.NewTracer(m.Eng))
	if got := m.effectiveWorkers(); got != 1 {
		t.Errorf("tracer attached: effectiveWorkers = %d, want 1", got)
	}

	// A single SM cluster leaves nothing to shard.
	m = build(func(cfg *config.Config) { cfg.GPU.SMsPerDomain = cfg.GPU.NumSMs })
	m.SetParallelism(4)
	if m.Cfg.DomainCount() != 1 {
		t.Fatalf("DomainCount = %d, want 1", m.Cfg.DomainCount())
	}
	if got := m.effectiveWorkers(); got != 1 {
		t.Errorf("one domain: effectiveWorkers = %d, want 1", got)
	}

	// Sub-threshold lookahead makes epochs too narrow to pay for barriers.
	m = build(func(cfg *config.Config) {
		cfg.GPU.SMsPerDomain = 1
		cfg.GPU.L2Latency = 2
	})
	m.SetParallelism(4)
	if la := m.Sys.Lookahead(); la >= sim.MinLookahead {
		t.Fatalf("lookahead = %d, expected < %d for this config", la, sim.MinLookahead)
	}
	if got := m.effectiveWorkers(); got != 1 {
		t.Errorf("narrow lookahead: effectiveWorkers = %d, want 1", got)
	}
}
