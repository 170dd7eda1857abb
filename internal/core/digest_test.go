package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/metrics"
	"uvmsim/internal/workload"
)

// simulationDigests pins a SHA-256 of the metrics.Summary JSON of every
// digestVariants point. Trace digests (TestCatalogTraceDigests) cannot see
// a change to the simulator itself; these can, whichever way it moves the
// statistics. A change that moves any digest alters simulated results, so
// it must also bump exp.resultsVersion before the new digests are pinned.
var simulationDigests = map[string]string{
	"BC@1/BASELINE":        "914e72e9aa677854b78056ef5459c77f0917794be9496656ffe9dd8f2e9f7018",
	"BFS-DWC@1/BASELINE":   "ea22e1d3bc19f595b00c467c5db4c8a2d4f52a0768715ba12cf1e1ae992bdca1",
	"BFS-TA@1/BASELINE":    "5ab09d4db69caad0561dbc69d1c1fbe27ca37732de02fe0b62aacf5292678b2d",
	"BFS-TF@1/BASELINE":    "43d788334c1a39e0cfa5e51c95ff1cb5378038af7e04511c9850670e8611bac6",
	"BFS-TTC@0.5/BASELINE": "f348cbcba5fa8e79af05766c65928e7f3b5a183ecbc720be29a0f5a3450e75cd",
	"BFS-TTC@0.5/TO+UE":    "ae2a20eb50c60d6e65490b85ca960034eeacacec535ab6b59b31e2cbf056b6af",
	"BFS-TTC@1/BASELINE":   "5be9e6fb56aa44f5f3238193a6499624165fc701d52a958f0c572eea3622981c",
	"BFS-TWC@1/BASELINE":   "d1ea8848873c6ef346c5f3991974db13ecc2c6bc4e05958a1efb87bf9aba1d76",
	"CC@1/BASELINE":        "de08788769c0bda20d31269ccac1fd701ef549543c6809d127e5f2379845688c",
	"CFD@1/BASELINE":       "20fac056a12909dee77c48c0c06fcbadebea43e879452e12c3b1fc2f86376b75",
	"DC@1/BASELINE":        "d3adab4e073b22b93ab33e15deb81cb5725b30a83e2a6434810ab49612053f50",
	"DWT@1/BASELINE":       "51cd6b43924ec9899968669ef52f82c8be0d091aa39135e17d87fb387e35952f",
	"GC-DTC@1/BASELINE":    "a429ad8c96257e6ed0887d7eba6b1b2f85abf14360c6c2dda47abda89d07cc7f",
	"GC-TTC@1/BASELINE":    "af090134de22810a4821f3c348a738437467860614b132862f9a79dc7a80ff8c",
	"GM@1/BASELINE":        "a004c3602cf5d646cd0876cb7d58f139e6e50e4957e71efae84451c5c0aa0ccd",
	"H3D@1/BASELINE":       "eca9c30fe6ec649ffba62030b15dbd93fe90f512582150770773831f0f3f2cc2",
	"HS@1/BASELINE":        "83e2702ef5da78fba284d1dfc476eecb1d9a93708329305b5752ae08144a41ab",
	"KCORE@1/BASELINE":     "fd55b9452bfdeb8dc108ac82a577fdf60f84e14b25e312d1b769c38211d4802c",
	"LUD@1/BASELINE":       "37e2258d87b236f656de8b316f00d177b216581a6bfdf39196f879d9f1e01d09",
	"PR@0.5/BASELINE":      "cdf26d4ecb50a83387802958860980432ff46da7eaabfc79f449aaaa0edc5fe6",
	"PR@0.5/TO+UE":         "df32b5cfc9f1d9f22fe537894841acdfa1773977f4dd4b2bfc6dc6839197919c",
	"PR@1/BASELINE":        "9ee69ad748875f27ee33e7bf2cbb0232f23daf4d87d329a3956037b16b405c27",
	"SSSP-TWC@1/BASELINE":  "1096d86a2ad20028a1c30bfac700abb6175169a3eba9430070a81df5d39e36e0",
	"TC@1/BASELINE":        "c1c8a56d9a733d4cd7d05310f09ca853591d7286277837d8d77de5c6e8c3cccf",
}

// digestParams shrinks the workloads enough that simulating the whole
// catalog stays cheap while still exercising faults, evictions, and
// context switches.
func digestParams() workload.Params {
	p := workload.Default()
	p.Vertices = 1 << 14
	p.AvgDegree = 6
	p.RegularElems = 1 << 15
	return p
}

type digestVariant struct {
	name   string
	ratio  float64
	policy config.Policy
}

func (v digestVariant) key() string {
	return fmt.Sprintf("%s@%g/%s", v.name, v.ratio, v.policy)
}

// digestVariants is every catalog workload on a full-capacity device
// (the fault, wake and translation traffic between the SM shards and the
// hub), plus BFS-TTC and PR at 50% oversubscription under BASELINE and
// TO+UE (eviction, premature refaults and TLB shootdowns; thread
// oversubscription and unobtrusive eviction).
func digestVariants() []digestVariant {
	var vs []digestVariant
	for _, name := range workload.All() {
		vs = append(vs, digestVariant{name, 1.0, config.Baseline})
	}
	for _, pol := range []config.Policy{config.Baseline, config.TOUE} {
		vs = append(vs, digestVariant{"BFS-TTC", 0.5, pol}, digestVariant{"PR", 0.5, pol})
	}
	return vs
}

func summaryDigest(t *testing.T, s *metrics.Stats) string {
	t.Helper()
	b, err := json.Marshal(s.Summary())
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestSimulationDigests also holds compiled replay to the generators:
// its digests were pinned when the simulator still replayed workloads
// straight from their generators.
func TestSimulationDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations in -short mode")
	}
	p := digestParams()
	for _, v := range digestVariants() {
		v := v
		t.Run(v.key(), func(t *testing.T) {
			t.Parallel()
			cfg := config.Default()
			cfg.MaxCycles = 2_000_000_000
			cfg.Policy = v.policy
			cfg.UVM.OversubscriptionRatio = v.ratio
			w, err := workload.BuildCompiled(v.name, p, cfg.GPU.WarpSize)
			if err != nil {
				t.Fatal(err)
			}
			stats, err := Run(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := summaryDigest(t, stats), simulationDigests[v.key()]; got != want {
				t.Errorf("summary digest %s, pinned %s", got, want)
			}
		})
	}
}

// TestDispatchedEventCount pins the event count of a real faulting
// workload on four shard domains: the explicit-key total order fixes every
// dispatched event.
func TestDispatchedEventCount(t *testing.T) {
	cfg := testConfig(config.Baseline)
	cfg.GPU.SMsPerDomain = 1 // 4 shard domains on the 4-SM test config
	m, err := NewMachine(cfg, scanWorkload(64, 8, 64, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if d := m.Sys.Dispatched(); d != 981 {
		t.Errorf("dispatched = %d, want 981", d)
	}
}
