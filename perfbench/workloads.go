package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"uvmsim/internal/config"
	"uvmsim/internal/exp"
	"uvmsim/internal/harness"
	"uvmsim/internal/trace"
	"uvmsim/internal/workload"
)

// benchWorkload is one figure grid the benchmark runs. README.md records
// why each exists and which layers it loads.
type benchWorkload struct {
	name   string
	figure string   // exp preset the grid comes from
	suite  []string // Runner.Suite: the grid's workloads
	// params returns the workload generation parameters for a seed.
	params func(seed uint64) (workload.Params, error)
	// warm makes set-up load every workload from an artifact store filled
	// before timing starts; otherwise each set-up builds into an empty one.
	warm bool
	// paperGap returns |ln(measured / paper)| for the figure's headline
	// number, or a reason it has none on this workload.
	paperGap func(points []point) (gap float64, what string, ok bool)
}

var workloads = []benchWorkload{
	{name: "paper-bfs", figure: "fig11", suite: []string{"BFS-TTC"}, params: paperScale, paperGap: fig11Gap},
	{name: "thrash-sssp", figure: "fig11", suite: []string{"SSSP-TWC"}, params: denseDefault, paperGap: noGap},
	{name: "preload-replay", figure: "fig05", suite: []string{"BC", "PR", "GC-TTC", "GC-DTC"}, params: defaultScale, warm: true, paperGap: fig05Gap},
}

func paperScale(seed uint64) (workload.Params, error) { return exp.ScaleParams("paper", seed) }

func defaultScale(seed uint64) (workload.Params, error) {
	p := workload.Default()
	p.Seed = seed
	return p, nil
}

// denseDefault is the default scale at average degree 16. At degree 8,
// whether SSSP-TWC's Fig. 11 points thrash into the cycle cap depends on
// the graph seed: 0 to 3 of the 6 points cap, and the grid's host time
// varies 3x between seeds. At degree 16 no point caps on any seed tried,
// and the grid stays paging-bound.
func denseDefault(seed uint64) (workload.Params, error) {
	p, err := defaultScale(seed)
	p.AvgDegree = 16
	return p, err
}

func lookupWorkload(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// setupOut is one set-up: a runner whose build cache holds every grid
// workload compiled and resident, plus the time each layer took.
type setupOut struct {
	runner *exp.Runner
	wall   time.Duration
	// Summed over the grid's workloads.
	build, compile, save, load time.Duration
	artifactBytes              int64
}

// setUp makes every workload of w's grid compiled and resident in a fresh
// runner's build cache, with the artifact store in dir as its disk tier.
// It fills the cache under the key Runner.Workload looks up, so the grid
// finds every workload in memory (checkGrid verifies that it did).
func setUp(w benchWorkload, p workload.Params, dir string, tr *tracer) (*setupOut, error) {
	sp := tr.begin("setup", 0)
	out := &setupOut{}
	r := exp.NewRunner(p, exp.DefaultBase())
	r.Suite = w.suite
	store, err := trace.OpenArtifactStore(dir)
	if err != nil {
		return nil, err
	}
	r.Builds.SetDisk(&timedStore{store: store, tr: tr, parent: sp.id, out: out})
	paramsHash, err := harness.HashParts(p)
	if err != nil {
		return nil, err
	}
	for _, name := range w.suite {
		key := trace.ArtifactKey(name, paramsHash, p.Seed, r.Base.GPU.WarpSize)
		get := tr.begin("BuildCache.Get "+name, sp.id)
		v, err := r.Builds.Get(key, func() (any, error) {
			b := tr.begin("workload.Build "+name, get.id)
			wl, err := workload.Build(name, p)
			out.build += b.end()
			if err != nil {
				return nil, err
			}
			c := tr.begin("trace.Compile "+name, get.id)
			compiled, err := trace.Compile(wl, r.Base.GPU.WarpSize)
			out.compile += c.end()
			return compiled, err
		})
		get.end()
		if err != nil {
			return nil, fmt.Errorf("set-up %s: %w", name, err)
		}
		compiled, ok := v.(*trace.Compiled)
		if !ok {
			return nil, fmt.Errorf("set-up %s: build cache holds %T", name, v)
		}
		out.artifactBytes += compiled.ArtifactBytes()
	}
	out.runner = r
	out.wall = sp.end()
	return out, nil
}

// fillStore builds and saves every workload of w's grid into the artifact
// store in dir, untimed, so a warm set-up only loads.
func fillStore(w benchWorkload, p workload.Params, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	s, err := setUp(w, p, dir, newTracer("fill", false))
	if err != nil {
		return err
	}
	if st := s.runner.Builds.Stats(); st.DiskSaves != int64(len(w.suite)) {
		return fmt.Errorf("filling the artifact store saved %d of %d workloads", st.DiskSaves, len(w.suite))
	}
	return nil
}

// timedStore is the build cache's disk tier: the artifact store, with a
// span around each call into it. It keeps ArtifactStore.Load/Save's
// contract: any load failure is a miss.
type timedStore struct {
	store  *trace.ArtifactStore
	tr     *tracer
	parent int
	out    *setupOut
}

func (s *timedStore) Load(key string) (any, bool) {
	sp := s.tr.begin("ArtifactStore.LoadCompiled", s.parent)
	c, err := s.store.LoadCompiled(key)
	s.out.load += sp.end()
	if err != nil {
		return nil, false
	}
	return c, true
}

func (s *timedStore) Save(key string, v any) (bool, error) {
	c, ok := v.(*trace.Compiled)
	if !ok {
		return false, nil
	}
	sp := s.tr.begin("ArtifactStore.SaveCompiled", s.parent)
	err := s.store.SaveCompiled(key, c)
	s.out.save += sp.end()
	return err == nil, err
}

// Paper headline numbers the simulated results are compared against.
const (
	paperTOUESpeedup = 2.0  // Fig. 11: TO+UE over BASELINE
	paperTOSpeedup   = 1.22 // Fig. 11: TO over BASELINE, a known gap
	paperFig05Mean   = 0.51 // Fig. 5: mean relative performance
)

// fig11Gap compares the TO+UE speedup over BASELINE with the paper's,
// and reports the TO speedup beside it.
func fig11Gap(points []point) (float64, string, bool) {
	var base, to, toue *point
	for i := range points {
		switch points[i].job.Config.Policy {
		case config.Baseline:
			base = &points[i]
		case config.TO:
			to = &points[i]
		case config.TOUE:
			toue = &points[i]
		}
	}
	for _, p := range []*point{base, to, toue} {
		if p == nil || p.stats() == nil || p.capped {
			return 0, "a BASELINE, TO or TO+UE point did not finish", false
		}
	}
	s := exp.Speedup(base.stats(), toue.stats())
	return math.Abs(math.Log(s / paperTOUESpeedup)),
		fmt.Sprintf("TO+UE speedup %.4fx vs paper %.1fx; TO %.4fx vs paper %.2fx, a known gap",
			s, paperTOUESpeedup, exp.Speedup(base.stats(), to.stats()), paperTOSpeedup), true
}

// fig05Gap compares the mean relative performance under stall-triggered
// context switching with the paper's.
func fig05Gap(points []point) (float64, string, bool) {
	base := map[string]*point{}
	for i := range points {
		if !points[i].job.Config.TraditionalSwitch {
			base[points[i].job.Workload] = &points[i]
		}
	}
	var rel []float64
	for i := range points {
		p := &points[i]
		b := base[p.job.Workload]
		if !p.job.Config.TraditionalSwitch || b == nil || b.stats() == nil || p.stats() == nil {
			continue
		}
		rel = append(rel, exp.Speedup(b.stats(), p.stats()))
	}
	if len(rel) == 0 {
		return 0, "no preloaded pair finished", false
	}
	m := exp.Mean(rel)
	return math.Abs(math.Log(m / paperFig05Mean)), fmt.Sprintf("mean relative performance %.4f vs paper %.2f", m, paperFig05Mean), true
}

// noGap is for thrash-sssp, whose denser graph is not a geometry the
// paper measured.
func noGap([]point) (float64, string, bool) {
	return 0, "a denser-than-default graph the paper has no figure for; at the default degree its BASELINE can hit the cycle cap, which makes any speedup only a lower bound", false
}
