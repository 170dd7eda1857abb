package harness

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"uvmsim/internal/metrics"
)

// TestEventJSONRoundTrip pins the wire format: an event encodes to one
// JSON line and decodes back to an identical value.
func TestEventJSONRoundTrip(t *testing.T) {
	ev := Event{
		Type: "job", ID: "fig11/BFS-TTC/TO+UE", Key: "BFS-TTC|abc123|7",
		Workload: "BFS-TTC", Seed: 7,
		Status: "failed", Err: "boom", WallNS: 1234,
		Completed: 3, Submitted: 9,
	}
	line, err := ev.AppendJSONLine(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(line, []byte("\n")) || bytes.Count(line, []byte("\n")) != 1 {
		t.Fatalf("not a single JSON line: %q", line)
	}
	var got Event
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if got != ev {
		t.Fatalf("round trip changed the event:\n got %+v\nwant %+v", got, ev)
	}
}

// TestReporterEmitsJSONLines runs a sweep with an Events writer attached
// and checks the stream parses line-by-line, matches the job outcomes,
// and mirrors the human counters.
func TestReporterEmitsJSONLines(t *testing.T) {
	var buf bytes.Buffer
	rep := NewReporter(nil)
	rep.Events = &buf
	p := New(Options{Jobs: 2, Reporter: rep})
	jobs := make([]Job, 6)
	for i := range jobs {
		jobs[i] = fakeJob(i)
	}
	failing := jobs[3].Key()
	_, err := p.Run(context.Background(), jobs, func(_ context.Context, j Job) (*metrics.Stats, error) {
		if j.Key() == failing {
			return nil, errors.New("deterministic failure")
		}
		return statsFor(j), nil
	})
	if err != nil {
		t.Fatal(err)
	}

	sc := bufio.NewScanner(&buf)
	var events []Event
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d: %v", len(events), err)
		}
		events = append(events, ev)
	}
	if len(events) != len(jobs) {
		t.Fatalf("emitted %d events, want %d", len(events), len(jobs))
	}
	failed := 0
	seen := make(map[string]bool)
	counters := make(map[int]bool)
	for i, ev := range events {
		if ev.Type != "job" {
			t.Fatalf("event %d type = %q", i, ev.Type)
		}
		if ev.Submitted != len(jobs) {
			t.Fatalf("event %d submitted = %d, want %d", i, ev.Submitted, len(jobs))
		}
		// Workers snapshot the counter under one lock but write lines
		// under another, so lines may interleave; the counter values must
		// still be exactly {1..n}.
		counters[ev.Completed] = true
		if ev.Status == "failed" {
			failed++
			if ev.Key != failing || !strings.Contains(ev.Err, "deterministic failure") {
				t.Fatalf("failure event misattributed: %+v", ev)
			}
		}
		seen[ev.Key] = true
	}
	if failed != 1 {
		t.Fatalf("stream shows %d failures, want 1", failed)
	}
	for i := 1; i <= len(jobs); i++ {
		if !counters[i] {
			t.Fatalf("no event carried completed=%d", i)
		}
	}
	for _, j := range jobs {
		if !seen[j.Key()] {
			t.Fatalf("no event for job %s", j.ID)
		}
	}
}
