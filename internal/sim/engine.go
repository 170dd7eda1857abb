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

import (
	"fmt"
	"math/bits"
)

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
// unique per event, so the order is strict and any queue that pops its
// minimum dispatches the exact sequence a sorted queue would — the
// queue's layout cannot change results.
func (e *event) before(o *event) bool {
	if e.when != o.when {
		return e.when < o.when
	}
	return e.key < o.key
}

// The near-future ring: one bucket per cycle of [now, now+ringSize).
const (
	ringSize  = 256
	ringMask  = ringSize - 1
	ringWords = ringSize / 64
)

// node is one ring slot: an event without its cycle, which its bucket
// fixes, and the next node of its bucket or of the free list (-1 ends
// either). At 40 bytes it is no larger than a heap entry.
type node struct {
	key   uint64
	fn    func()
	argFn func(uint64)
	arg   uint64
	next  int32
}

// Engine is a discrete-event simulation engine. The zero value is not ready
// to use; call NewEngine.
//
// The queue is a calendar queue in two parts. Events due in fewer than
// ringSize cycles go into a ring of per-cycle buckets: bucket when&ringMask
// is a singly linked FIFO, kept in key order, threaded through one node
// array whose popped nodes return to a free list, so scheduling allocates
// nothing in steady state. Every ring event lies in [now, now+ringSize),
// so each bucket holds a single cycle, and an occupancy bitmap scanned
// from now&ringMask finds the earliest one. Events due later go into a
// value-based 4-ary min-heap and stay there until dispatched. Step pops
// whichever of the ring's front and the heap's top comes first under
// before, so the dispatch order is the (when, key) order whatever part
// holds an event.
type Engine struct {
	now      Cycle
	seq      uint64
	rankBase uint64 // rank << rankShift, ORed into self-scheduled keys
	nEvent   uint64 // total events dispatched

	nodes      []node // ring nodes, in use or on the free list
	free       int32  // free-list head, -1 when empty
	nRing      int    // events in the ring
	occ        [ringWords]uint64
	head, tail [ringSize]int32 // valid only where occ is set

	far []event // 4-ary min-heap ordered by event.before
}

// NewEngine returns an engine with the clock at cycle zero and rank 0.
func NewEngine() *Engine {
	return &Engine{free: -1}
}

// SetRank fixes the engine's tie-break rank: events it schedules on itself
// carry keys ordered after every lower-ranked source at the same cycle.
// A standalone engine keeps rank 0 and behaves exactly like a FIFO
// tie-break. Call once at wiring time, before any event is scheduled —
// changing rank with events queued would reorder ties retroactively.
func (e *Engine) SetRank(rank int) {
	if e.Pending() != 0 || e.nEvent != 0 {
		panic("sim: SetRank after events were scheduled")
	}
	e.rankBase = uint64(rank) << rankShift
}

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// Dispatched returns the total number of events dispatched so far.
func (e *Engine) Dispatched() uint64 { return e.nEvent }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.nRing + len(e.far) }

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
	e.push(when, e.nextKey(), fn, nil, 0)
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
	e.push(when, e.nextKey(), nil, argFn, arg)
}

// scheduleKeyed inserts an event carrying a caller-supplied key — a
// cross-domain delivery whose tie order was fixed by the *sender's* rank
// and send sequence. The receiving engine's own sequence is untouched.
func (e *Engine) scheduleKeyed(when Cycle, key uint64, fn func(), argFn func(uint64), arg uint64) {
	if when < e.now {
		panic(fmt.Sprintf("sim: keyed schedule at cycle %d before now %d", when, e.now))
	}
	e.push(when, key, fn, argFn, arg)
}

// push queues an event due at or after now: in its cycle's bucket when
// that lies within the ring, else in the far heap. An idle engine's clock
// may lag, routing a near delivery to the heap; that costs speed, not
// order.
func (e *Engine) push(when Cycle, key uint64, fn func(), argFn func(uint64), arg uint64) {
	if when-e.now >= ringSize {
		e.far = append(e.far, event{when: when, key: key, fn: fn, argFn: argFn, arg: arg})
		e.siftUp(len(e.far) - 1)
		return
	}
	n := e.free
	if n >= 0 {
		e.free = e.nodes[n].next
	} else {
		n = int32(len(e.nodes))
		e.nodes = append(e.nodes, node{})
	}
	nodes := e.nodes
	nd := &nodes[n]
	nd.key, nd.fn, nd.argFn, nd.arg = key, fn, argFn, arg
	e.nRing++
	b := when & ringMask
	w, bit := b>>6, uint64(1)<<(b&63)
	if e.occ[w]&bit == 0 {
		e.occ[w] |= bit
		nodes[n].next = -1
		e.head[b], e.tail[b] = n, n
		return
	}
	// Self-scheduled keys rise, so they append; only a cross-domain key
	// arriving out of rank order within one cycle walks the bucket.
	if t := e.tail[b]; nodes[t].key < key {
		nodes[n].next = -1
		nodes[t].next = n
		e.tail[b] = n
		return
	}
	p := e.head[b]
	if key < nodes[p].key {
		nodes[n].next = p
		e.head[b] = n
		return
	}
	for nodes[nodes[p].next].key < key { // the tail's key is larger: stops
		p = nodes[p].next
	}
	nodes[n].next = nodes[p].next
	nodes[p].next = n
}

// ringFront returns the bucket of the ring's earliest event, or -1 when
// the ring is empty. The scan starts at now's bucket and wraps: the
// buckets below it in its own word hold the ring's latest cycles.
func (e *Engine) ringFront() int {
	if e.nRing == 0 {
		return -1
	}
	s := int(e.now & ringMask)
	w := s >> 6
	if m := e.occ[w] >> (s & 63); m != 0 {
		return s + bits.TrailingZeros64(m)
	}
	for i := 1; i <= ringWords; i++ {
		ww := (w + i) & (ringWords - 1)
		if m := e.occ[ww]; m != 0 {
			return ww<<6 + bits.TrailingZeros64(m)
		}
	}
	panic("sim: ring count and occupancy disagree")
}

// next finds the earliest queued event: its ring bucket, or -1 for the far
// heap's top, and its cycle. ok is false when the queue is empty. A
// bucket's cycle follows from its distance to now's, so only a tie with
// the heap's top reads a node.
func (e *Engine) next() (b int, when Cycle, ok bool) {
	b = e.ringFront()
	if b < 0 {
		if len(e.far) == 0 {
			return 0, 0, false
		}
		return -1, e.far[0].when, true
	}
	when = e.now + Cycle((b-int(e.now&ringMask))&ringMask)
	if len(e.far) > 0 {
		if f := &e.far[0]; f.when < when || f.when == when && f.key < e.nodes[e.head[b]].key {
			return -1, f.when, true
		}
	}
	return b, when, true
}

// NextTime returns the cycle of the earliest pending event. ok is false
// when the queue is empty.
func (e *Engine) NextTime() (when Cycle, ok bool) {
	_, when, ok = e.next()
	return when, ok
}

// siftUp restores the heap property from leaf i toward the root.
func (e *Engine) siftUp(i int) {
	q := e.far
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
	q := e.far
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

// dispatch pops the earliest event, found by next in bucket b (-1: the
// far heap) at cycle when, advances the clock to it and runs the event.
func (e *Engine) dispatch(b int, when Cycle) {
	var (
		fn    func()
		argFn func(uint64)
		arg   uint64
	)
	if b < 0 {
		q := e.far
		fn, argFn, arg = q[0].fn, q[0].argFn, q[0].arg
		n := len(q) - 1
		q[0] = q[n]
		q[n].fn, q[n].argFn = nil, nil // release the closures; the slot stays pooled
		e.far = q[:n]
		if n > 0 {
			e.siftDown(n)
		}
	} else {
		n := e.head[b]
		nd := &e.nodes[n]
		fn, argFn, arg = nd.fn, nd.argFn, nd.arg
		nd.fn, nd.argFn = nil, nil // release the closures
		if nd.next < 0 {
			e.occ[b>>6] &^= uint64(1) << (b & 63)
		} else {
			e.head[b] = nd.next
		}
		nd.next = e.free
		e.free = n
		e.nRing--
	}
	e.now = when
	e.nEvent++
	if fn != nil {
		fn()
	} else {
		argFn(arg)
	}
}

// Step dispatches the next event, advancing the clock to its cycle.
// It reports whether an event was dispatched.
func (e *Engine) Step() bool {
	b, when, ok := e.next()
	if ok {
		e.dispatch(b, when)
	}
	return ok
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
	for {
		b, when, ok := e.next()
		if !ok {
			return true
		}
		if when > limit {
			return false
		}
		e.dispatch(b, when)
	}
}
