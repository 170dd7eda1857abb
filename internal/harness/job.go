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
// Identity is the triple (Workload, Hash, Seed): two jobs with the same
// identity are interchangeable, which is what lets the on-disk cache resume an
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
	// Seed is the job's derived deterministic seed; see DeriveSeed.
	Seed uint64
	// NoCache exempts the job from the result cache (used for jobs whose
	// value is a side effect, like pre-building a workload's traces).
	NoCache bool
}

// Key returns the job's cache identity.
func (j Job) Key() string {
	return fmt.Sprintf("%s|%s|%d", j.Workload, j.Hash, j.Seed)
}

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

// DeriveSeed derives a per-job seed from a sweep-level base seed and the
// job's identity strings (typically the workload name and config hash).
// The derivation is order-sensitive and avalanche-mixed, so distinct jobs
// get decorrelated seeds while the same job always gets the same seed —
// execution order and worker count never influence it.
func DeriveSeed(base uint64, parts ...string) uint64 {
	const (
		fnvOffset = 0xcbf29ce484222325
		fnvPrime  = 0x100000001b3
	)
	z := uint64(fnvOffset)
	mix := func(b byte) { z = (z ^ uint64(b)) * fnvPrime }
	for i := 0; i < 8; i++ {
		mix(byte(base >> (8 * i)))
	}
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			mix(p[i])
		}
		mix(0xff) // separator: ("ab","c") != ("a","bc")
	}
	// splitmix64 finalizer for avalanche.
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
