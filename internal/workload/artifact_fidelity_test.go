package workload

import (
	"encoding/json"
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/core"
	"uvmsim/internal/harness"
	"uvmsim/internal/trace"
)

// TestArtifactReplayFidelity is the acceptance guarantee behind the
// UVMCMP1 disk tier: for every workload in the catalog, simulating a
// compiled trace loaded back from an on-disk artifact must produce a
// byte-identical metrics.Summary to simulating the freshly built one.
// The demand-paging point exercises the traced addresses; the Preload
// point additionally exercises the reconstructed layout.Space, whose
// per-array page mapping (zero-length arrays reserve an unmapped slot)
// would diverge under any lossy space encoding.
func TestArtifactReplayFidelity(t *testing.T) {
	p := fidelityParams()
	demand := config.Default()
	demand.Policy = config.TOUE
	demand.GPU.NumSMs = 4
	demand.MaxCycles = 2_000_000_000
	demand.UVM.OversubscriptionRatio = 0.95
	preload := demand
	preload.Preload = true
	preload.UVM.OversubscriptionRatio = 1.0

	store, err := trace.OpenArtifactStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hash, err := harness.HashParts(p)
	if err != nil {
		t.Fatal(err)
	}

	for _, name := range All() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			fresh, err := BuildCompiled(name, p, demand.GPU.WarpSize)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			key := trace.ArtifactKey(name, hash, p.Seed, demand.GPU.WarpSize)
			if err := store.SaveCompiled(key, fresh); err != nil {
				t.Fatalf("save: %v", err)
			}
			loaded, err := store.LoadCompiled(key)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			for _, tc := range []struct {
				label string
				cfg   config.Config
			}{{"demand", demand}, {"preload", preload}} {
				freshStats, err := core.Run(tc.cfg, fresh)
				if err != nil {
					t.Fatalf("%s fresh run: %v", tc.label, err)
				}
				loadedStats, err := core.Run(tc.cfg, loaded)
				if err != nil {
					t.Fatalf("%s disk-loaded run: %v", tc.label, err)
				}
				freshJSON, err := json.Marshal(freshStats.Summary())
				if err != nil {
					t.Fatal(err)
				}
				loadedJSON, err := json.Marshal(loadedStats.Summary())
				if err != nil {
					t.Fatal(err)
				}
				if string(freshJSON) != string(loadedJSON) {
					t.Errorf("%s summaries diverge\nfresh:  %s\nloaded: %s", tc.label, freshJSON, loadedJSON)
				}
			}
		})
	}
}
