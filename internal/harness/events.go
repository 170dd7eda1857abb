package harness

import (
	"encoding/json"
	"fmt"
)

// Event is one machine-readable progress record. The Reporter emits one
// per job completion as a JSON line when Events is set (cmd/experiments
// -progress-json).
type Event struct {
	// Type is "job": every record is a job completion.
	Type string `json:"type"`
	// ID is the human-readable job label.
	ID string `json:"id"`
	// Key is the job's cache identity.
	Key      string `json:"key,omitempty"`
	Workload string `json:"workload,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`
	// Status is "done", "cached" (served from the result store), or
	// "failed".
	Status string `json:"status"`
	Err    string `json:"error,omitempty"`
	WallNS int64  `json:"wall_ns,omitempty"`
	// Completed and Submitted are the reporter's sweep-wide progress
	// counters at the time of the event.
	Completed int `json:"completed"`
	Submitted int `json:"submitted"`
}

// jobEvent builds the progress event for one finished job against the
// given counters.
func jobEvent(res *Result, completed, submitted int) Event {
	status := "done"
	switch {
	case res.Cached:
		status = "cached"
	case res.Err != "":
		status = "failed"
	}
	return Event{
		Type:      "job",
		ID:        res.ID,
		Key:       res.Key(),
		Workload:  res.Workload,
		Seed:      res.Seed,
		Status:    status,
		Err:       res.Err,
		WallNS:    res.WallNS,
		Completed: completed,
		Submitted: submitted,
	}
}

// AppendJSONLine appends the event's JSON encoding plus a newline to buf.
func (e Event) AppendJSONLine(buf []byte) ([]byte, error) {
	data, err := json.Marshal(e)
	if err != nil {
		return buf, fmt.Errorf("harness: encoding event: %w", err)
	}
	buf = append(buf, data...)
	return append(buf, '\n'), nil
}
