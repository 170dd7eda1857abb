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
	"flag"
	"fmt"
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
	par := flag.Int("par", 1, "event-engine workers sharding SM clusters across cores (results are byte-identical at any value; ignored with -exectrace)")
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

	var w *trace.Workload
	switch {
	case *traceIn != "":
		w, err = readTrace(*traceIn, cfg.GPU.WarpSize)
	case *traceOut != "" || *artifacts != "":
		var c *trace.Compiled
		var key string
		if c, key, err = compileWorkload(*artifacts, *name, p, cfg.GPU.WarpSize); err != nil {
			break
		}
		if *traceOut == "" {
			w = c.Workload()
			break
		}
		if err = writeTrace(*traceOut, c, key); err == nil {
			fmt.Printf("wrote %s (%d kernels, %d pages)\n", *traceOut, len(c.Kernels()), c.Workload().FootprintPages())
			return
		}
	default:
		w, err = workload.Build(*name, p)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var stats *metrics.Stats
	if *execTrace != "" {
		var tr *telemetry.Tracer
		stats, tr, err = core.RunTraced(cfg, w)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f, ferr := os.Create(*execTrace)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, ferr)
			os.Exit(1)
		}
		if werr := tr.WriteJSON(f); werr != nil {
			fmt.Fprintln(os.Stderr, werr)
			os.Exit(1)
		}
		if cerr := f.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, cerr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote execution trace %s (%d events)\n", *execTrace, tr.Len())
	} else {
		stats, err = core.RunParallel(cfg, w, *par)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *jsonOut {
		out := struct {
			Workload  string                `json:"workload"`
			Policy    string                `json:"policy"`
			Ratio     float64               `json:"oversubscription_ratio"`
			Footprint int                   `json:"footprint_pages"`
			Summary   metrics.Summary       `json:"summary"`
			Batches   []metrics.BatchRecord `json:"batches"`
		}{
			Workload:  w.Name,
			Policy:    pol.String(),
			Ratio:     *ratio,
			Footprint: w.FootprintPages(),
			Summary:   stats.Summary(),
			Batches:   stats.BatchRecords(),
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	ghz := cfg.GPU.ClockGHz
	us := func(cycles float64) float64 { return cycles / (1000 * ghz) }
	fmt.Printf("workload            %s (%d pages, %.1f MB footprint)\n",
		w.Name, w.FootprintPages(), float64(w.FootprintBytes())/(1<<20))
	fmt.Printf("policy              %v, ratio %.2f, fault handling %.0fus\n", pol, *ratio, *handling)
	fmt.Printf("execution           %d cycles (%.3f ms)\n", stats.Cycles, us(float64(stats.Cycles))/1000)
	fmt.Printf("warp instructions   %d\n", stats.Instrs)
	fmt.Printf("page faults raised  %d\n", stats.FaultsRaised)
	var faultSum int
	for _, b := range stats.Batches {
		faultSum += b.Faults
	}
	meanFaults := 0.0
	if stats.NumBatches() > 0 {
		meanFaults = float64(faultSum) / float64(stats.NumBatches())
	}
	fmt.Printf("batches             %d (mean %.1f pages, %.1f faults)\n",
		stats.NumBatches(), stats.MeanBatchPages(), meanFaults)
	fmt.Printf("batch processing    mean %.1fus, median %.1fus\n",
		us(stats.MeanBatchProcessingTime()), us(stats.MedianBatchProcessingTime()))
	fmt.Printf("migrations          %d (%d prefetched)\n", stats.Migrations, stats.Prefetches)
	fmt.Printf("evictions           %d (%.1f%% premature)\n", stats.Evictions, stats.PrematureEvictionRate()*100)
	fmt.Printf("context switches    %d (%d cycles)\n", stats.ContextSwitches, stats.ContextSwitchCycles)
	if *timeline {
		fmt.Println()
		if err := metrics.RenderTimeline(os.Stdout, stats.Batches, 100); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	fmt.Printf("L1 TLB              %d hits / %d misses\n", stats.TLBL1Hits, stats.TLBL1Miss)
	fmt.Printf("L2 TLB              %d hits / %d misses\n", stats.TLBL2Hits, stats.TLBL2Miss)
	fmt.Printf("L1 cache            %d hits / %d misses\n", stats.CacheL1Hit, stats.CacheL1Mis)
	fmt.Printf("L2 cache            %d hits / %d misses\n", stats.CacheL2Hit, stats.CacheL2Mis)
}

// readTrace loads a trace file (a UVMCMP1 artifact from -traceout or an
// artifact store) under any key, so it checks the warp size the key
// would have pinned: a trace from another warp size would otherwise
// replay a mispartitioned subset of its warps without error.
func readTrace(path string, warpSize int) (*trace.Workload, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c, err := trace.ReadCompiledArtifact(data, "")
	if err != nil {
		return nil, fmt.Errorf("reading trace %s: %w", path, err)
	}
	if c.WarpSize != warpSize {
		return nil, fmt.Errorf("trace %s was recorded at warp size %d; the simulated GPU uses warp size %d", path, c.WarpSize, warpSize)
	}
	return c.Workload(), nil
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
// build is persisted. Results are byte-identical either way.
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
		w, err := workload.Build(name, p)
		if err != nil {
			return nil, err
		}
		return trace.Compile(w, warpSize)
	})
	if err != nil {
		return nil, "", err
	}
	return v.(*trace.Compiled), key, nil
}
