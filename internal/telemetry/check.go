package telemetry

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Structural validation of exported traces. This is the receiving side
// of the trace handoff: any consumer holding Chrome trace-event JSON
// produced by WriteJSON — cmd/tracecheck in CI, or a test of its own —
// can assert the object form, the required per-event fields, and the
// batch-span nesting invariant before loading it into Perfetto.

// CheckStats summarizes a validated trace.
type CheckStats struct {
	Events     int `json:"events"`
	Spans      int `json:"spans"`
	Batches    int `json:"batches"`
	Migrations int `json:"migrations"`
	Counters   int `json:"counter_samples"`
}

// String renders the summary the way cmd/tracecheck reports it.
func (s CheckStats) String() string {
	return fmt.Sprintf("%d events (%d spans, %d batches, %d migrations, %d counter samples)",
		s.Events, s.Spans, s.Batches, s.Migrations, s.Counters)
}

type checkEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    *float64       `json:"ts"`
	Dur   *float64       `json:"dur"`
	PID   *int           `json:"pid"`
	TID   *int           `json:"tid"`
	Args  map[string]any `json:"args"`
}

type checkFile struct {
	TraceEvents     []checkEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// Check structurally validates trace-event JSON: object form, non-empty
// span set with the required fields, and every migration span nested
// inside some batch span (the DESIGN.md §12 invariant). A nil error
// means Perfetto will load the data and the spans mean what the tracer
// documents.
func Check(data []byte) (CheckStats, error) {
	var tf checkFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return CheckStats{}, fmt.Errorf("not trace-event JSON object form: %w", err)
	}
	if tf.TraceEvents == nil {
		return CheckStats{}, fmt.Errorf("missing traceEvents array")
	}

	type span struct{ start, end float64 }
	var batches []span
	var st CheckStats
	st.Events = len(tf.TraceEvents)
	for i, ev := range tf.TraceEvents {
		if ev.Name == "" || ev.Phase == "" {
			return st, fmt.Errorf("event %d: missing name or ph", i)
		}
		if ev.PID == nil || ev.TID == nil || ev.TS == nil {
			return st, fmt.Errorf("event %d (%s): missing pid, tid, or ts", i, ev.Name)
		}
		switch ev.Phase {
		case "X":
			if ev.Dur == nil {
				return st, fmt.Errorf("event %d (%s): complete span without dur", i, ev.Name)
			}
			st.Spans++
			switch {
			case ev.Name == "batch":
				st.Batches++
				batches = append(batches, span{*ev.TS, *ev.TS + *ev.Dur})
			case strings.HasPrefix(ev.Name, "migrate"):
				st.Migrations++
			}
		case "C":
			if ev.Args == nil {
				return st, fmt.Errorf("event %d (%s): counter without args", i, ev.Name)
			}
			st.Counters++
		}
	}
	if st.Spans == 0 {
		return st, fmt.Errorf("no complete ('X') spans — empty or truncated run")
	}

	// Nesting invariant: every migration span sits inside a batch span.
	// The tolerance absorbs float64 rounding of ts+dur (timestamps are
	// exact multiples of 0.001 µs — one cycle — so 1e-6 µs of slack can
	// never mask a genuine off-by-a-cycle escape).
	const eps = 1e-6
	orphans := 0
	for _, ev := range tf.TraceEvents {
		if ev.Phase != "X" || !strings.HasPrefix(ev.Name, "migrate") {
			continue
		}
		inside := false
		for _, b := range batches {
			if *ev.TS >= b.start-eps && *ev.TS+*ev.Dur <= b.end+eps {
				inside = true
				break
			}
		}
		if !inside {
			orphans++
		}
	}
	if orphans > 0 {
		return st, fmt.Errorf("%d migration spans outside every batch span", orphans)
	}
	return st, nil
}
