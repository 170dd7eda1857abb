package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"
)

// fakeClock is a settable Clock for unit tests.
type fakeClock struct{ now uint64 }

func (c *fakeClock) Now() uint64 { return c.now }

func TestNilTracerIsInertEverywhere(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	// Every method must be a safe no-op on the nil tracer — these are the
	// calls living on the simulator's hot paths.
	tr.Span(TrackBatches, "x", 0, 1)
	tr.SpanArgs(TrackBatches, "x", 0, 1, map[string]any{"k": 1})
	tr.Counter("c", 1)
	tr.CounterAt(5, "c", 1)
	tr.Migration(7, 0, 10, true)
	tr.Eviction(7, 0, 10, true, true)
	tr.BatchSpan(0, 0, 5, 10, 1, 2, 3, 1, 4096, 2)
	tr.RegisterCounter("c", func() float64 { return 1 })
	tr.Sample()
	if tr.Len() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer recorded events")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("nil tracer WriteJSON: %v", err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("nil tracer trace is not JSON: %v", err)
	}
}

func TestSpanAndCounterRecording(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(clk)
	if !tr.Enabled() {
		t.Fatal("tracer not enabled")
	}
	tr.Span(TrackBatches, "batch", 100, 50)
	clk.now = 160
	tr.Counter("to_degree", 2)
	if tr.Len() != 2 {
		t.Fatalf("events = %d, want 2", tr.Len())
	}
	evs := tr.Events()
	if evs[0].Phase != 'X' || evs[0].TS != 100 || evs[0].Dur != 50 {
		t.Fatalf("span event = %+v", evs[0])
	}
	if evs[1].Phase != 'C' || evs[1].TS != 160 || evs[1].Value != 2 {
		t.Fatalf("counter event = %+v", evs[1])
	}
}

func TestSampleEmitsRegisteredCountersInOrder(t *testing.T) {
	clk := &fakeClock{now: 42}
	tr := NewTracer(clk)
	a, b := 1.0, 2.0
	tr.RegisterCounter("alpha", func() float64 { return a })
	tr.RegisterCounter("beta", func() float64 { return b })
	tr.Sample()
	a, b = 3, 4
	clk.now = 99
	tr.Sample()
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("events = %d, want 4", len(evs))
	}
	want := []struct {
		name string
		ts   uint64
		v    float64
	}{{"alpha", 42, 1}, {"beta", 42, 2}, {"alpha", 99, 3}, {"beta", 99, 4}}
	for i, w := range want {
		if evs[i].Name != w.name || evs[i].TS != w.ts || evs[i].Value != w.v {
			t.Fatalf("event %d = %+v, want %+v", i, evs[i], w)
		}
	}
}

func TestWriteJSONChromeTraceFormat(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(clk)
	tr.BatchSpan(0, 1000, 21000, 90000, 4, 6, 1, 1, 6*65536, 500)
	tr.Migration(17, 22000, 4000, false)
	tr.Eviction(3, 1000, 5000, true, true)
	clk.now = 90000
	tr.Counter("to_degree", 1)

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   *float64       `json:"ts"`
			Dur  *float64       `json:"dur"`
			PID  *int           `json:"pid"`
			TID  *int           `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if f.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", f.DisplayTimeUnit)
	}
	var spans, counters, metas int
	for _, e := range f.TraceEvents {
		if e.Name == "" || e.Ph == "" || e.TS == nil || e.PID == nil || e.TID == nil {
			t.Fatalf("event missing required fields: %+v", e)
		}
		switch e.Ph {
		case "X":
			if e.Dur == nil {
				t.Fatalf("complete event without dur: %+v", e)
			}
			spans++
		case "C":
			if _, ok := e.Args["value"]; !ok {
				t.Fatalf("counter without value arg: %+v", e)
			}
			counters++
		case "M":
			metas++
		}
	}
	if spans != 3 || counters != 1 {
		t.Fatalf("spans=%d counters=%d", spans, counters)
	}
	if metas < 1+len(trackNames) {
		t.Fatalf("metadata events = %d, want >= %d", metas, 1+len(trackNames))
	}
	// The batch span's cycle timestamps convert to microseconds (1 GHz
	// time base): start 1000 cycles -> 1 µs, dur 89000 cycles -> 89 µs.
	for _, e := range f.TraceEvents {
		if e.Name == "batch" {
			if *e.TS != 1.0 || *e.Dur != 89.0 {
				t.Fatalf("batch ts/dur = %v/%v, want 1/89", *e.TS, *e.Dur)
			}
		}
	}
}

func TestWriteJSONDeterministic(t *testing.T) {
	build := func() []byte {
		clk := &fakeClock{}
		tr := NewTracer(clk)
		tr.BatchSpan(1, 0, 10, 20, 1, 2, 0, 0, 131072, 0)
		tr.RegisterCounter("x", func() float64 { return 7 })
		tr.Sample()
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("repeated exports differ")
	}
}

// BenchmarkDisabledTracerCall measures the nil fast path: the cost a
// hot-path call site pays with tracing off must be a nil check.
func BenchmarkDisabledTracerCall(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Migration(uint64(i), uint64(i), 10, false)
		tr.Counter("x", 1)
	}
}
