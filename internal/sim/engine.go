// Package sim provides the discrete-event simulation core used by the GPU,
// MMU, and UVM runtime models.
//
// Time is measured in cycles of the GPU core clock (1 GHz in the default
// configuration, so one cycle is one nanosecond). Components interact by
// scheduling callbacks on a shared Engine; the engine dispatches events in
// nondecreasing cycle order and, for equal cycles, in ascending event-key
// order. Keys combine the scheduling domain's rank with a per-source
// sequence number, so the tie order is (cycle, source domain, send order)
// — a pure function of what was scheduled, independent of when the events
// were inserted into the queue. That independence is what lets the
// multi-domain System (system.go) run its domains in windows of any
// placement and still produce byte-identical simulations.
package sim

import "fmt"

// Cycle is a point in simulated time, in GPU core cycles.
type Cycle = uint64

// Event keys pack (source rank, per-source sequence) into one uint64:
// rank in the high bits, sequence in the low rankShift bits. Comparing
// keys numerically therefore compares (rank, seq) lexicographically.
// 2^48 events per source is ~78 hours of one event per cycle at 1 GHz —
// far past any simulation we run — and the schedulers panic on overflow
// rather than silently wrapping the tie order.
const (
	rankShift = 48
	maxSeq    = (uint64(1) << rankShift) - 1
)

// Event is a scheduled callback: either a plain closure (fn) or a
// parameterized callback (argFn, arg). The parameterized form lets hot
// paths deliver a uint64 payload through a callback bound once at
// construction, instead of allocating a fresh closure per event.
type event struct {
	when  Cycle
	key   uint64 // tie-breaker: (source rank << rankShift) | source sequence
	fn    func()
	argFn func(uint64)
	arg   uint64
}

// before is the total event order: (when, key) lexicographic. Keys are
// unique per event, so the order is strict and any min-heap over it
// dispatches the exact sequence a sorted queue would — heap arity cannot
// change results.
func (e *event) before(o *event) bool {
	if e.when != o.when {
		return e.when < o.when
	}
	return e.key < o.key
}

// Engine is a discrete-event simulation engine. The zero value is not ready
// to use; call NewEngine.
//
// The queue is a value-based 4-ary min-heap: events live inline in the
// backing array, so scheduling allocates nothing in steady state (the array
// doubles as the event free pool — popped slots are reused by later pushes,
// and growth is amortized append). 4-ary beats binary here because sift-down
// does ~half the levels, and the hot comparison loop over four children stays
// in one or two cache lines of the packed event array.
type Engine struct {
	now      Cycle
	seq      uint64
	rankBase uint64  // rank << rankShift, ORed into self-scheduled keys
	queue    []event // 4-ary min-heap ordered by event.before
	nEvent   uint64  // total events dispatched
}

// NewEngine returns an engine with the clock at cycle zero and rank 0.
func NewEngine() *Engine {
	return &Engine{}
}

// SetRank fixes the engine's tie-break rank: events it schedules on itself
// carry keys ordered after every lower-ranked source at the same cycle.
// A standalone engine keeps rank 0 and behaves exactly like a FIFO
// tie-break. Call once at wiring time, before any event is scheduled —
// changing rank with events queued would reorder ties retroactively.
func (e *Engine) SetRank(rank int) {
	if len(e.queue) != 0 || e.nEvent != 0 {
		panic("sim: SetRank after events were scheduled")
	}
	e.rankBase = uint64(rank) << rankShift
}

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// Dispatched returns the total number of events dispatched so far.
func (e *Engine) Dispatched() uint64 { return e.nEvent }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.queue) }

// nextKey advances the per-source sequence and returns the packed key.
func (e *Engine) nextKey() uint64 {
	e.seq++
	if e.seq > maxSeq {
		panic("sim: engine sequence overflow (2^48 events from one source)")
	}
	return e.rankBase | e.seq
}

// Schedule runs fn at the given absolute cycle. Scheduling in the past
// panics: it always indicates a modeling bug.
func (e *Engine) Schedule(when Cycle, fn func()) {
	if when < e.now {
		panic(fmt.Sprintf("sim: schedule at cycle %d before now %d", when, e.now))
	}
	e.queue = append(e.queue, event{when: when, key: e.nextKey(), fn: fn})
	e.siftUp(len(e.queue) - 1)
}

// After runs fn delay cycles from now.
func (e *Engine) After(delay Cycle, fn func()) {
	e.Schedule(e.now+delay, fn)
}

// ScheduleArg runs argFn(arg) at the given absolute cycle. It is the
// allocation-free way to deliver a small payload: argFn is typically a
// method value bound once at construction, and arg rides in the event.
func (e *Engine) ScheduleArg(when Cycle, argFn func(uint64), arg uint64) {
	if when < e.now {
		panic(fmt.Sprintf("sim: schedule at cycle %d before now %d", when, e.now))
	}
	e.queue = append(e.queue, event{when: when, key: e.nextKey(), argFn: argFn, arg: arg})
	e.siftUp(len(e.queue) - 1)
}

// scheduleKeyed inserts an event carrying a caller-supplied key — a
// cross-domain delivery whose tie order was fixed by the *sender's* rank
// and send sequence. The receiving engine's own sequence is untouched.
func (e *Engine) scheduleKeyed(when Cycle, key uint64, fn func(), argFn func(uint64), arg uint64) {
	if when < e.now {
		panic(fmt.Sprintf("sim: keyed schedule at cycle %d before now %d", when, e.now))
	}
	e.queue = append(e.queue, event{when: when, key: key, fn: fn, argFn: argFn, arg: arg})
	e.siftUp(len(e.queue) - 1)
}

// NextTime returns the cycle of the earliest pending event. ok is false
// when the queue is empty.
func (e *Engine) NextTime() (when Cycle, ok bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].when, true
}

// siftUp restores the heap property from leaf i toward the root.
func (e *Engine) siftUp(i int) {
	q := e.queue
	ev := q[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
}

// siftDown restores the heap property from the root over n elements.
func (e *Engine) siftDown(n int) {
	q := e.queue
	ev := q[0]
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q[c].before(&q[best]) {
				best = c
			}
		}
		if !q[best].before(&ev) {
			break
		}
		q[i] = q[best]
		i = best
	}
	q[i] = ev
}

// Step dispatches the next event, advancing the clock to its cycle.
// It reports whether an event was dispatched.
func (e *Engine) Step() bool {
	n := len(e.queue)
	if n == 0 {
		return false
	}
	when, fn := e.queue[0].when, e.queue[0].fn
	argFn, arg := e.queue[0].argFn, e.queue[0].arg
	n--
	if n > 0 {
		e.queue[0] = e.queue[n]
		e.queue[n].fn, e.queue[n].argFn = nil, nil // release the closures; the slot stays pooled
		e.queue = e.queue[:n]
		e.siftDown(n)
	} else {
		e.queue[0].fn, e.queue[0].argFn = nil, nil
		e.queue = e.queue[:0]
	}
	e.now = when
	e.nEvent++
	if fn != nil {
		fn()
	} else {
		argFn(arg)
	}
	return true
}

// Run dispatches events until the queue is empty and returns the final
// cycle.
func (e *Engine) Run() Cycle {
	for e.Step() {
	}
	return e.now
}

// RunUntil dispatches events until the queue is empty or the clock would
// pass the limit. Events scheduled exactly at the limit are dispatched. It
// reports whether the queue was drained.
func (e *Engine) RunUntil(limit Cycle) bool {
	for len(e.queue) > 0 {
		if e.queue[0].when > limit {
			return false
		}
		e.Step()
	}
	return true
}
