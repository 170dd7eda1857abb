// Package telemetry is the simulator's execution-trace layer: a pluggable
// tracer and counter registry that the UVM runtime (internal/core), the GPU
// cluster (internal/gpu), and the translation hardware (internal/vm) emit
// lifecycle events into, timed by the event engine (internal/sim, whose
// *Engine satisfies Clock).
//
// The tracer records the paper's batch lifecycle as spans —
// fault batch → per-page migrations → evictions, with the PCIe in/out
// channel busy intervals and the thread-oversubscription controller's
// degree changes — plus named counters sampled from registered sources
// (TLB/walker/cache hit counts, event-queue depth). Traces export as
// Chrome trace-event JSON (WriteJSON), loadable directly in Perfetto or
// chrome://tracing.
//
// A nil *Tracer is the disabled tracer: every method is a no-op guarded by
// a single nil check, so call sites on the simulator's per-access hot paths
// pay nothing measurable when tracing is off (BenchmarkDisabledTracerCall
// pins the guarantee). Components therefore keep a plain *Tracer field,
// nil by default, and call it unconditionally.
//
// The package name avoids internal/trace, which holds workload access
// traces — a different artifact entirely.
package telemetry

// Clock supplies the current simulated cycle. *sim.Engine satisfies it;
// tests may substitute a fixed clock.
type Clock interface {
	Now() uint64
}

// Track identifiers: the tid of every emitted event names the timeline it
// renders on. Batch spans share a track with the migrations and
// same-channel evictions they nest; the out PCIe channel (unobtrusive and
// preemptive evictions) gets its own lane, as do kernels and context
// switches.
const (
	TrackKernels  = 1 // kernel launch -> completion spans
	TrackBatches  = 2 // batch spans nesting migrations + in-channel evictions
	TrackPCIeOut  = 3 // out-channel (preemptive/unobtrusive) eviction transfers
	TrackSwitches = 4 // thread-block context switches
)

// trackNames label the tracks in the exported trace (thread_name metadata).
var trackNames = map[int]string{
	TrackKernels:  "kernels",
	TrackBatches:  "uvm batches (PCIe in)",
	TrackPCIeOut:  "PCIe out channel",
	TrackSwitches: "context switches",
}

// Event is one trace record, in cycles. Phase follows the Chrome
// trace-event vocabulary: 'X' complete spans (Dur meaningful), 'C'
// counters (Value meaningful).
type Event struct {
	Name  string
	Phase byte
	TS    uint64
	Dur   uint64
	Track int
	Value float64        // counters only
	Args  map[string]any // optional span arguments
}

// sampler is one registered counter source.
type sampler struct {
	name string
	fn   func() float64
}

// Tracer accumulates events in memory. It is not safe for concurrent use;
// one simulation owns one tracer (the simulator itself is single-threaded
// per run, so this matches the engine's model).
type Tracer struct {
	clock    Clock
	events   []Event
	samplers []sampler
}

// NewTracer returns an enabled tracer timed by clock.
func NewTracer(clock Clock) *Tracer {
	if clock == nil {
		panic("telemetry: nil clock")
	}
	return &Tracer{clock: clock}
}

// Enabled reports whether the tracer collects events (false on nil).
func (t *Tracer) Enabled() bool { return t != nil }

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Events exposes the recorded events (tests and exporters).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// Span records a complete span [start, start+dur) on a track.
func (t *Tracer) Span(track int, name string, start, dur uint64) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{Name: name, Phase: 'X', TS: start, Dur: dur, Track: track})
}

// SpanArgs records a complete span with arguments. Callers must build the
// args map only after checking Enabled, or use the typed helpers below,
// so the disabled path allocates nothing.
func (t *Tracer) SpanArgs(track int, name string, start, dur uint64, args map[string]any) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{Name: name, Phase: 'X', TS: start, Dur: dur, Track: track, Args: args})
}

// Counter records a named counter value at the current cycle.
func (t *Tracer) Counter(name string, value float64) {
	if t == nil {
		return
	}
	t.CounterAt(t.clock.Now(), name, value)
}

// CounterAt records a named counter value at an explicit cycle.
func (t *Tracer) CounterAt(ts uint64, name string, value float64) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{Name: name, Phase: 'C', TS: ts, Value: value})
}

// Migration records one page transfer of a batch on the in-channel track.
func (t *Tracer) Migration(page uint64, start, dur uint64, prefetched bool) {
	if t == nil {
		return
	}
	name := "migrate"
	if prefetched {
		name = "migrate (prefetch)"
	}
	t.events = append(t.events, Event{
		Name: name, Phase: 'X', TS: start, Dur: dur, Track: TrackBatches,
		Args: map[string]any{"page": page},
	})
}

// Eviction records one eviction transfer. Out-channel evictions
// (unobtrusive or preemptive) render on the PCIe-out lane; in-channel
// (baseline serialized) evictions nest inside their batch span.
func (t *Tracer) Eviction(victim uint64, start, dur uint64, out, preemptive bool) {
	if t == nil {
		return
	}
	track := TrackBatches
	if out {
		track = TrackPCIeOut
	}
	name := "evict"
	if preemptive {
		name = "evict (preemptive)"
	}
	t.events = append(t.events, Event{
		Name: name, Phase: 'X', TS: start, Dur: dur, Track: track,
		Args: map[string]any{"page": victim},
	})
}

// BatchSpan records one fault batch's lifecycle span: assembly at Start,
// first transfer at FirstMigration, completion at End, with the
// composition and channel-overlap measurements Figures 2 and 5-8 of the
// paper are built from.
func (t *Tracer) BatchSpan(id int, start, firstMigration, end uint64, faults, pages, evictions, preemptive int, bytes, outOverlap uint64) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{
		Name: "batch", Phase: 'X', TS: start, Dur: end - start, Track: TrackBatches,
		Args: map[string]any{
			"id":                 id,
			"faults":             faults,
			"pages":              pages,
			"bytes":              bytes,
			"evictions":          evictions,
			"preemptive":         preemptive,
			"first_migration":    firstMigration,
			"fault_handling_dur": firstMigration - start,
			"out_overlap_cycles": outOverlap,
		},
	})
}

// RegisterCounter adds a named counter source sampled by Sample. Sources
// are sampled in registration order, which keeps exported traces
// deterministic.
func (t *Tracer) RegisterCounter(name string, fn func() float64) {
	if t == nil {
		return
	}
	t.samplers = append(t.samplers, sampler{name: name, fn: fn})
}

// Sample emits one counter event per registered source at the current
// cycle (batch boundaries and run end are the natural sampling points).
func (t *Tracer) Sample() {
	if t == nil {
		return
	}
	now := t.clock.Now()
	for _, s := range t.samplers {
		t.CounterAt(now, s.name, s.fn())
	}
}
