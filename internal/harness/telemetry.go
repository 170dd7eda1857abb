package harness

import (
	"context"
	"strings"
)

// Per-job telemetry collection. When Options.TraceDir is set, every
// freshly-executed job's context carries a destination path for an
// execution trace; executors that know how to trace (internal/exp's
// simulation executor) write Chrome trace-event JSON there. The harness
// itself stays ignorant of the trace contents — it only derives the path
// and records whether a file appeared — so executors without telemetry
// support keep working unchanged. Cache hits skip execution and therefore
// produce no trace.

// tracePathKey is the context key carrying a job's trace destination.
type tracePathKey struct{}

// withTracePath attaches a trace destination to a job's context.
func withTracePath(ctx context.Context, path string) context.Context {
	return context.WithValue(ctx, tracePathKey{}, path)
}

// TracePath returns the execution-trace destination for the current job,
// or "" when telemetry collection is off.
func TracePath(ctx context.Context) string {
	p, _ := ctx.Value(tracePathKey{}).(string)
	return p
}

// runParKey is the context key carrying a job's execution parallelism.
type runParKey struct{}

// withRunPar attaches the budget-capped intra-run parallelism to a job's
// context.
func withRunPar(ctx context.Context, par int) context.Context {
	return context.WithValue(ctx, runParKey{}, par)
}

// RunPar returns the intra-run parallelism the current job should execute
// with: min(Job.Par, pool goroutine budget). Executors must run with this
// value rather than Job.Par — Job.Par names the simulation for cache
// keying (host-independent), while RunPar keeps a small host from
// oversubscribing. Results are byte-identical at any worker count, so the
// distinction never changes what a job computes. Returns 0 for contexts
// outside a pool run (callers fall back to their own default).
func RunPar(ctx context.Context) int {
	p, _ := ctx.Value(runParKey{}).(int)
	return p
}

// traceFileName derives a filesystem-safe trace file name from a job ID
// (IDs embed sweep paths like "fig11/BFS-TTC/TO+UE").
func traceFileName(id string) string {
	var b strings.Builder
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '.', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String() + ".trace.json"
}
