// Package uvmsim is a discrete-event simulator of GPU unified virtual
// memory (UVM) with batch-aware memory management, reproducing "Batch-Aware
// Unified Memory Management in GPUs for Irregular Workloads" (Kim et al.,
// ASPLOS 2020).
//
// The simulator models a 16-SM GPU with demand paging over PCIe: page
// faults stall warps, the UVM runtime processes faults in batches (the
// serialization the paper analyzes), pages migrate at PCIe bandwidth, and
// device memory evicts with aged LRU under oversubscription. On top of the
// baseline (state-of-the-art tree prefetching), the package implements the
// paper's two mechanisms — thread oversubscription (TO) and unobtrusive
// eviction (UE) — plus the ETC framework and PCIe compression as
// comparison points.
//
// Quick start:
//
//	w, _ := uvmsim.BuildWorkload("BFS-TTC", uvmsim.DefaultWorkloadParams())
//	cfg := uvmsim.DefaultConfig()
//	cfg.Policy = uvmsim.TOUE
//	res, err := uvmsim.Simulate(cfg, w)
//	fmt.Println(res.Cycles, res.NumBatches())
package uvmsim

import (
	"uvmsim/internal/config"
	"uvmsim/internal/core"
	"uvmsim/internal/metrics"
	"uvmsim/internal/trace"
	"uvmsim/internal/workload"
)

// Config is the simulated-system configuration (Table 1 plus policy
// knobs).
type Config = config.Config

// Policy selects the memory-management mechanism under test.
type Policy = config.Policy

// Policies, in the order Figure 11 reports them.
const (
	Baseline           = config.Baseline
	BaselineCompressed = config.BaselineCompressed
	TO                 = config.TO
	UE                 = config.UE
	TOUE               = config.TOUE
	ETC                = config.ETC
	IdealEviction      = config.IdealEviction
)

// Workload is a benchmark compiled for replay: an address-space layout
// plus its kernel launches, every warp's accesses captured once.
type Workload = trace.Compiled

// WorkloadParams sizes the generated benchmarks.
type WorkloadParams = workload.Params

// Result carries a run's measurements (batches, migrations, evictions,
// premature evictions, context switches, cycles, cache/TLB counters).
type Result = metrics.Stats

// Machine is an assembled simulator instance, exposed for callers that
// need component access (page table, cluster, runtime) beyond Simulate.
type Machine = core.Machine

// DefaultConfig returns the paper's Table 1 configuration with the
// Baseline policy and 50% memory oversubscription.
func DefaultConfig() Config { return config.Default() }

// DefaultWorkloadParams returns workload sizes producing footprints of a
// few hundred 64 KB pages (scaled-down GraphBIG inputs; see DESIGN.md §4).
func DefaultWorkloadParams() WorkloadParams { return workload.Default() }

// IrregularWorkloads lists the eleven GraphBIG workloads of the paper's
// evaluation, in figure order.
func IrregularWorkloads() []string { return append([]string(nil), workload.Irregular...) }

// RegularWorkloads lists the six Figure 1 regular workloads.
func RegularWorkloads() []string { return append([]string(nil), workload.Regular...) }

// ExtensionWorkloads lists the extra irregular workloads (CC, TC, DC)
// beyond the paper's evaluation suite.
func ExtensionWorkloads() []string { return append([]string(nil), workload.Extensions...) }

// AllWorkloads lists every buildable workload.
func AllWorkloads() []string { return workload.All() }

// BuildWorkload constructs a named workload and compiles it at the
// default configuration's warp size, the only one Simulate accepts.
func BuildWorkload(name string, p WorkloadParams) (*Workload, error) {
	return workload.BuildCompiled(name, p, config.Default().GPU.WarpSize)
}

// Simulate runs the workload to completion under cfg and returns the
// measurements.
func Simulate(cfg Config, w *Workload) (*Result, error) {
	return core.Run(cfg, w)
}

// NewMachine assembles a simulator without running it, for callers that
// want to inspect or drive components directly.
func NewMachine(cfg Config, w *Workload) (*Machine, error) {
	return core.NewMachine(cfg, w)
}
