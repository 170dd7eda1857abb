package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"uvmsim/internal/config"
)

// Job names one independent simulation run inside a sweep.
//
// Identity is the pair (Workload, Hash): two jobs with the same identity
// are interchangeable, which is what lets the on-disk cache resume an
// interrupted sweep. Hash must cover everything that influences the
// result — the full simulated-system configuration plus the workload
// generation parameters — so callers build it with HashParts over both.
type Job struct {
	// ID is the human-readable label ("fig11/BFS-TTC/TO+UE"); it appears
	// in progress output and error messages but not in the cache key.
	ID string
	// Workload is the workload name; part of the cache key.
	Workload string
	// Config is the full simulated-system configuration for this run.
	Config config.Config
	// Hash identifies the (config, workload-params) point; see HashParts.
	Hash string
	// NoCache exempts the job from the result cache (used for jobs whose
	// value is a side effect, like pre-building a workload's traces).
	NoCache bool
}

// Key returns the job's cache identity.
func (j Job) Key() string { return j.Workload + "|" + j.Hash }

// HashParts hashes an arbitrary sequence of JSON-encodable values into a
// hex digest. Sweep drivers pass the workload parameters and the run
// configuration; any field change — including ones added in future
// revisions — changes the hash, so stale cache entries can never be
// mistaken for current ones.
func HashParts(parts ...any) (string, error) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, p := range parts {
		if err := enc.Encode(p); err != nil {
			return "", fmt.Errorf("harness: hashing %T: %w", p, err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:24], nil
}
