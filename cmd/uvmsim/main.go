// Command uvmsim runs one workload under one policy and prints the
// measurements the paper reports for a run: execution cycles, batch
// statistics, migration/eviction counts, and translation/cache behaviour.
//
// Example:
//
//	uvmsim -workload BFS-TTC -policy TO+UE -ratio 0.5 -vertices 262144
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"uvmsim/internal/config"
	"uvmsim/internal/core"
	"uvmsim/internal/harness"
	"uvmsim/internal/metrics"
	"uvmsim/internal/telemetry"
	"uvmsim/internal/trace"
	"uvmsim/internal/workload"
)

func main() {
	name := flag.String("workload", "BFS-TTC", "workload name (see -list)")
	policy := flag.String("policy", "baseline", "baseline|baseline+pciec|to|ue|to+ue|etc|ideal-eviction")
	ratio := flag.Float64("ratio", 0.5, "GPU memory as a fraction of the footprint")
	vertices := flag.Int("vertices", 1<<17, "graph vertices")
	degree := flag.Int("degree", 16, "average out-degree")
	seed := flag.Uint64("seed", 42, "graph seed")
	handling := flag.Float64("handling", 20, "GPU runtime fault handling time (us)")
	sms := flag.Int("sms", 16, "number of SMs")
	tpb := flag.Int("tpb", 1024, "threads per block for generated workloads")
	compute := flag.Int("compute", 24, "compute cycles between memory operations")
	dram := flag.Uint64("dram", 0, "DRAM bytes/cycle for the contention model (0 = fixed latency)")
	issue := flag.Int("issue", 0, "per-SM issue slots per cycle (0 = unconstrained)")
	dirty := flag.Bool("dirty", false, "track dirty pages (clean evictions skip the transfer)")
	preload := flag.Bool("preload", false, "preload the footprint (no demand paging)")
	list := flag.Bool("list", false, "list workloads and exit")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON (summary + batch timeline)")
	timeline := flag.Bool("timeline", false, "render the batch timeline as ASCII (Figure 2's view)")
	runahead := flag.Int("runahead", 0, "runahead fault-generation depth (0 = off)")
	traceOut := flag.String("traceout", "", "write the workload's compiled trace (a UVMCMP1 artifact) to this file and exit")
	traceIn := flag.String("tracein", "", "simulate a trace file (written by -traceout, or any .uvmcmp artifact-store entry) instead of building -workload")
	execTrace := flag.String("trace", "", "write a Chrome trace-event JSON execution trace (Perfetto-loadable) to this file")
	artifacts := flag.String("artifacts", "", "on-disk compiled-trace artifact store: load the workload's UVMCMP1 artifact when present, else build and persist it; share the directory with cmd/experiments -artifact-dir to skip its builds too")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(workload.All(), "\n"))
		return
	}

	pol, err := config.ParsePolicy(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	cfg := config.Default()
	cfg.Policy = pol
	cfg.UVM.OversubscriptionRatio = *ratio
	cfg.UVM.FaultHandlingUS = *handling
	cfg.Preload = *preload
	cfg.UVM.RunaheadDepth = *runahead
	cfg.GPU.NumSMs = *sms
	cfg.GPU.DRAMBytesPerCycle = *dram
	cfg.GPU.IssueSlotsPerCycle = *issue
	cfg.UVM.TrackDirty = *dirty

	p := workload.Default()
	p.Vertices = *vertices
	p.AvgDegree = *degree
	p.Seed = *seed
	p.ThreadsPerBlock = *tpb
	p.ComputeCycles = *compute

	var w *trace.Compiled
	if *traceIn != "" {
		w, err = readTrace(*traceIn)
	} else {
		var key string
		if w, key, err = compileWorkload(*artifacts, *name, p, cfg.GPU.WarpSize); err == nil && *traceOut != "" {
			if err = writeTrace(*traceOut, w, key); err == nil {
				fmt.Printf("wrote %s (%d kernels, %d pages)\n", *traceOut, len(w.Kernels()), w.FootprintPages())
				return
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if code := simulate(os.Stdout, os.Stderr, cfg, w, *execTrace, *jsonOut, *timeline); code != 0 {
		os.Exit(code)
	}
}

// exitCapped is uvmsim's exit status for a run stopped at the cycle cap:
// it printed a report, but every figure in it is a lower bound.
const exitCapped = 3

// simulate runs w under cfg, writes the Chrome trace to execTrace when it
// is set, prints the report and returns the exit status. A run stopped at
// the cycle cap still writes its trace and reports its partial statistics,
// marked as a lower bound, after printing the cap error to stderr, and
// returns exitCapped; any other failure prints the error and returns 1.
func simulate(stdout, stderr io.Writer, cfg config.Config, w *trace.Compiled, execTrace string, jsonOut, timeline bool) int {
	var (
		stats *metrics.Stats
		tr    *telemetry.Tracer
		err   error
	)
	if execTrace != "" {
		stats, tr, err = core.RunTraced(cfg, w)
	} else {
		stats, err = core.Run(cfg, w)
	}
	var capErr error
	if err != nil {
		fmt.Fprintln(stderr, err)
		if stats == nil || !errors.Is(err, core.ErrCycleLimit) {
			return 1
		}
		capErr = err
	}
	if execTrace != "" {
		if err := writeExecTrace(execTrace, tr); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stderr, "wrote execution trace %s (%d events)\n", execTrace, tr.Len())
	}
	if err := report(stdout, cfg, w, stats, capErr, jsonOut, timeline); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if capErr != nil {
		return exitCapped
	}
	return 0
}

// writeExecTrace writes tr to path as Chrome trace-event JSON.
func writeExecTrace(path string, tr *telemetry.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints stats as the text summary or, with jsonOut, as JSON. A
// non-nil capErr marks them as the lower bound of a capped run: a text
// line, or "capped" and "cap_error" in the JSON, neither of which an
// uncapped run prints.
func report(out io.Writer, cfg config.Config, w *trace.Compiled, stats *metrics.Stats, capErr error, jsonOut, timeline bool) error {
	pol := cfg.Policy
	if jsonOut {
		res := struct {
			Workload  string                `json:"workload"`
			Policy    string                `json:"policy"`
			Ratio     float64               `json:"oversubscription_ratio"`
			Footprint int                   `json:"footprint_pages"`
			Capped    bool                  `json:"capped,omitempty"`
			CapError  string                `json:"cap_error,omitempty"`
			Summary   metrics.Summary       `json:"summary"`
			Batches   []metrics.BatchRecord `json:"batches"`
		}{
			Workload:  w.Name,
			Policy:    pol.String(),
			Ratio:     cfg.UVM.OversubscriptionRatio,
			Footprint: w.FootprintPages(),
			Summary:   stats.Summary(),
			Batches:   stats.BatchRecords(),
		}
		if capErr != nil {
			res.Capped, res.CapError = true, capErr.Error()
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}

	ghz := cfg.GPU.ClockGHz
	us := func(cycles float64) float64 { return cycles / (1000 * ghz) }
	fmt.Fprintf(out, "workload            %s (%d pages, %.1f MB footprint)\n",
		w.Name, w.FootprintPages(), float64(w.FootprintBytes())/(1<<20))
	fmt.Fprintf(out, "policy              %v, ratio %.2f, fault handling %.0fus\n", pol, cfg.UVM.OversubscriptionRatio, cfg.UVM.FaultHandlingUS)
	if capErr != nil {
		fmt.Fprintf(out, "capped              at %d cycles: every figure below is a lower bound\n", stats.Cycles)
	}
	fmt.Fprintf(out, "execution           %d cycles (%.3f ms)\n", stats.Cycles, us(float64(stats.Cycles))/1000)
	fmt.Fprintf(out, "warp instructions   %d\n", stats.Instrs)
	fmt.Fprintf(out, "page faults raised  %d\n", stats.FaultsRaised)
	var faultSum int
	for _, b := range stats.Batches {
		faultSum += b.Faults
	}
	meanFaults := 0.0
	if stats.NumBatches() > 0 {
		meanFaults = float64(faultSum) / float64(stats.NumBatches())
	}
	fmt.Fprintf(out, "batches             %d (mean %.1f pages, %.1f faults)\n",
		stats.NumBatches(), stats.MeanBatchPages(), meanFaults)
	fmt.Fprintf(out, "batch processing    mean %.1fus, median %.1fus\n",
		us(stats.MeanBatchProcessingTime()), us(stats.MedianBatchProcessingTime()))
	fmt.Fprintf(out, "migrations          %d (%d prefetched)\n", stats.Migrations, stats.Prefetches)
	fmt.Fprintf(out, "evictions           %d (%.1f%% premature)\n", stats.Evictions, stats.PrematureEvictionRate()*100)
	fmt.Fprintf(out, "context switches    %d (%d cycles)\n", stats.ContextSwitches, stats.ContextSwitchCycles)
	if timeline {
		fmt.Fprintln(out)
		if err := metrics.RenderTimeline(out, stats.Batches, 100); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "L1 TLB              %d hits / %d misses\n", stats.TLBL1Hits, stats.TLBL1Miss)
	fmt.Fprintf(out, "L2 TLB              %d hits / %d misses\n", stats.TLBL2Hits, stats.TLBL2Miss)
	fmt.Fprintf(out, "L1 cache            %d hits / %d misses\n", stats.CacheL1Hit, stats.CacheL1Mis)
	fmt.Fprintf(out, "L2 cache            %d hits / %d misses\n", stats.CacheL2Hit, stats.CacheL2Mis)
	return nil
}

// readTrace loads a trace file (a UVMCMP1 artifact from -traceout or an
// artifact store) under any key. core.NewMachine refuses a trace recorded
// at another warp size than the simulated GPU's.
func readTrace(path string) (*trace.Compiled, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c, err := trace.ReadCompiledArtifact(data, "")
	if err != nil {
		return nil, fmt.Errorf("reading trace %s: %w", path, err)
	}
	return c, nil
}

// writeTrace writes c to path as the UVMCMP1 artifact stored under key:
// the bytes an artifact-store entry for the same point holds.
func writeTrace(path string, c *trace.Compiled, key string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteCompiledArtifact(f, c, key); err != nil {
		f.Close()
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	return f.Close()
}

// compileWorkload returns the workload compiled at warpSize and its
// artifact-store key. With a store directory it goes through the same
// disk tier as cmd/experiments: an artifact already stored (by it or an
// earlier run) loads with no generation or compile work, and a fresh
// build is persisted. Without one it builds and compiles. Results are
// byte-identical either way.
func compileWorkload(dir, name string, p workload.Params, warpSize int) (*trace.Compiled, string, error) {
	hash, err := harness.HashParts(p)
	if err != nil {
		return nil, "", err
	}
	key := trace.ArtifactKey(name, hash, p.Seed, warpSize)
	builds := harness.NewBuildCache()
	if dir != "" {
		store, err := trace.OpenArtifactStore(dir)
		if err != nil {
			return nil, "", err
		}
		builds.SetDisk(store)
	}
	v, err := builds.Get(key, func() (any, error) {
		return workload.BuildCompiled(name, p, warpSize)
	})
	if err != nil {
		return nil, "", err
	}
	return v.(*trace.Compiled), key, nil
}
