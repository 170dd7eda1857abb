package telemetry

import (
	"encoding/json"
	"io"
	"sort"
)

// The exported JSON follows the Chrome trace-event format (JSON object
// form): {"traceEvents": [...], "displayTimeUnit": "ns"}. Perfetto and
// chrome://tracing load it directly. Timestamps convert from GPU cycles to
// the format's microseconds at the 1 GHz core clock the simulation's time
// base assumes (1 cycle = 1 ns), so trace durations read in real units.

// tracePID is the single simulated process all events belong to.
const tracePID = 1

type jsonEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []jsonEvent `json:"traceEvents"`
	DisplayTimeUnit string      `json:"displayTimeUnit"`
}

// cyclesToUS converts cycles (1 ns at the 1 GHz time base) to trace-format
// microseconds.
func cyclesToUS(c uint64) float64 { return float64(c) / 1000.0 }

// WriteJSON exports the trace as Chrome trace-event JSON. The disabled
// (nil) tracer writes a valid empty trace, so callers need no special
// casing. Output is deterministic: events appear in emission order after
// the metadata block, and args maps marshal with sorted keys
// (encoding/json's map behaviour).
func (t *Tracer) WriteJSON(w io.Writer) error {
	f := traceFile{DisplayTimeUnit: "ns", TraceEvents: []jsonEvent{}}

	// Metadata: one process, one named thread per track (sorted by tid so
	// repeated exports are byte-identical).
	f.TraceEvents = append(f.TraceEvents, jsonEvent{
		Name: "process_name", Phase: "M", PID: tracePID, TID: 0,
		Args: map[string]any{"name": "uvmsim"},
	})
	tids := make([]int, 0, len(trackNames))
	for tid := range trackNames {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		f.TraceEvents = append(f.TraceEvents, jsonEvent{
			Name: "thread_name", Phase: "M", PID: tracePID, TID: tid,
			Args: map[string]any{"name": trackNames[tid]},
		})
	}

	for _, ev := range t.Events() {
		je := jsonEvent{
			Name: ev.Name,
			TS:   cyclesToUS(ev.TS),
			PID:  tracePID,
			TID:  ev.Track,
			Args: ev.Args,
		}
		switch ev.Phase {
		case 'X':
			je.Phase = "X"
			dur := cyclesToUS(ev.Dur)
			je.Dur = &dur
		case 'C':
			je.Phase = "C"
			je.TID = 0 // counters are per-process tracks keyed by name
			je.Args = map[string]any{"value": ev.Value}
		default:
			je.Phase = string(ev.Phase)
		}
		f.TraceEvents = append(f.TraceEvents, je)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(f)
}
