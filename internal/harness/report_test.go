package harness

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"uvmsim/internal/metrics"
)

func TestReporterCountsAndNarrates(t *testing.T) {
	var sb strings.Builder
	rp := NewReporter(&sb)
	rp.setWorkers(4)
	rp.submitted(4)
	rp.done(&Result{ID: "a", WallNS: int64(2 * time.Second), PeakBatchPages: 10})
	rp.done(&Result{ID: "b", Cached: true, PeakBatchPages: 99})
	rp.done(&Result{ID: "c", Cached: true})
	rp.done(&Result{ID: "d", Err: "boom", WallNS: int64(time.Second)})
	tot := rp.Totals()
	if tot.Done != 1 || tot.Cached != 2 || tot.Failed != 1 || tot.Submitted != 4 {
		t.Fatalf("totals = %+v", tot)
	}
	if tot.PeakBatch != 99 {
		t.Fatalf("peak batch = %d, want 99", tot.PeakBatch)
	}
	if tot.WallSum != 3*time.Second {
		t.Fatalf("wall sum = %v (cached job wall must not count)", tot.WallSum)
	}
	out := sb.String()
	for _, want := range []string{"[1/4]", "cached", "FAILED: boom", "[4/4]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("narration missing %q:\n%s", want, out)
		}
	}
	// Distinct counts per slot, so a swapped format argument fails here.
	if s := rp.Summary(); !strings.Contains(s, "4 jobs (1 run, 2 cached, 0 capped, 1 failed)") {
		t.Fatalf("summary = %q", s)
	}
}

func TestReporterETAOnlyWithRemainingWork(t *testing.T) {
	// With jobs remaining and fresh-run timing available, an ETA appears.
	if s := etaSuffix(Totals{Submitted: 10, Done: 2, WallSum: 20 * time.Second}, 2); !strings.Contains(s, "eta") {
		t.Fatalf("no eta with work remaining: %q", s)
	}
	// All done: no ETA.
	if s := etaSuffix(Totals{Submitted: 2, Done: 2, WallSum: time.Second}, 2); s != "" {
		t.Fatalf("eta after completion: %q", s)
	}
	// A capped run is a fresh run: it gives timing, and it completes.
	if s := etaSuffix(Totals{Submitted: 5, Capped: 1, WallSum: 10 * time.Second}, 1); !strings.Contains(s, "eta") {
		t.Fatalf("no eta after a capped run: %q", s)
	}
	if s := etaSuffix(Totals{Submitted: 2, Done: 1, Capped: 1, WallSum: time.Second}, 1); s != "" {
		t.Fatalf("eta after completion: %q", s)
	}
	// Only cache hits so far: no timing basis, no ETA.
	if s := etaSuffix(Totals{Submitted: 5, Cached: 2}, 2); s != "" {
		t.Fatalf("eta without timing basis: %q", s)
	}
}

// TestReporterCountsCappedApart runs one job through each of the three
// result shapes: a success, a cycle-cap abort with partial stats (a lower
// bound the figures render marked), and an outright failure. Only the
// last is a failure.
func TestReporterCountsCappedApart(t *testing.T) {
	var sb strings.Builder
	p := New(Options{Jobs: 1, Reporter: NewReporter(&sb)})
	executors := []Executor{
		func(_ context.Context, j Job) (*metrics.Stats, error) { return statsFor(j), nil },
		func(_ context.Context, j Job) (*metrics.Stats, error) {
			return statsFor(j), errors.New("cycle limit 1000 reached: 3 batches, 7 pending faults")
		},
		func(context.Context, Job) (*metrics.Stats, error) { return nil, errors.New("bad config") },
	}
	for i, exec := range executors {
		if _, err := p.Run(context.Background(), []Job{fakeJob(i)}, exec); err != nil {
			t.Fatal(err)
		}
	}
	tot := p.Reporter().Totals()
	if tot.Done != 1 || tot.Capped != 1 || tot.Failed != 1 || tot.Cached != 0 || tot.Completed() != 3 {
		t.Fatalf("totals = %+v", tot)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("narration has %d lines, want 3:\n%s", len(lines), sb.String())
	}
	for i, want := range []string{"  done", "  capped: cycle limit 1000 reached: 3 batches, 7 pending faults", "  FAILED: bad config"} {
		if !strings.Contains(lines[i], want) {
			t.Fatalf("line %d = %q, want %q", i, lines[i], want)
		}
	}
	if s := p.Reporter().Summary(); !strings.Contains(s, "3 jobs (1 run, 0 cached, 1 capped, 1 failed)") {
		t.Fatalf("summary = %q", s)
	}
}
