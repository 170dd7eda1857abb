// Package sim provides the discrete-event simulation core used by the GPU,
// MMU, and UVM runtime models.
//
// Time is measured in cycles of the GPU core clock (1 GHz in the default
// configuration, so one cycle is one nanosecond). Components interact by
// scheduling callbacks on an Engine, a domain's handle on one event queue;
// the queue dispatches events in nondecreasing cycle order and, for equal
// cycles, in ascending event-key order. Keys combine the scheduling
// domain's rank with that domain's sequence number, so the tie order is
// (cycle, source domain, schedule order) — a pure function of what was
// scheduled, independent of how the queue stores it. NewEngine returns a
// one-domain queue; a System (system.go) gives several domains their
// handles on one queue.
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

// The near-future ring covers the cycles [now, now+ringSize).
const (
	ringSize = 256
	ringMask = ringSize - 1
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

// bucket is one (cycle, rank) list of ring nodes, head first.
type bucket struct{ head, tail int32 }

// queue is the event queue that every domain of one System schedules
// into: a calendar queue in two parts. Events due in fewer than ringSize
// cycles go into a ring with one bucket per (cycle, rank): a cycle's
// slots, one per rank padded to a power of two, lie side by side, and
// bucket (when&ringMask)<<shift | rank is a singly linked FIFO threaded
// through one node array whose popped nodes return to a free list, so
// scheduling allocates nothing in steady state. A rank's keys only rise,
// so every push appends and each bucket is in key order. Every ring event
// lies in [now, now+ringSize), so each bucket holds a single cycle, and
// an occupancy bitmap scanned from now's first slot finds the earliest
// bucket in (cycle, rank) order — the (when, key) order. Events due later
// go into a value-based 4-ary min-heap and stay there until dispatched.
// Dispatch pops whichever of the ring's front and the heap's top comes
// first under before, so the dispatch order is the (when, key) order
// whatever part holds an event.
type queue struct {
	now    Cycle
	nEvent uint64 // total events dispatched
	shift  uint   // log2 of the ring's slots per cycle

	nodes   []node   // ring nodes, in use or on the free list
	free    int32    // free-list head, -1 when empty
	nRing   int      // events in the ring
	occ     []uint64 // one bit per bucket
	buckets []bucket // valid only where occ is set

	far []event // 4-ary min-heap ordered by event.before
}

// newQueue returns an empty queue for ranks 0 to domains-1.
func newQueue(domains int) *queue {
	shift := uint(bits.Len(uint(domains - 1)))
	n := ringSize << shift
	return &queue{
		shift:   shift,
		free:    -1,
		occ:     make([]uint64, n/64),
		buckets: make([]bucket, n),
	}
}

// Engine is one domain's handle on an event queue: the domain's tie-break
// rank and its sequence counter. Events it schedules carry keys ordered
// after every lower-ranked domain's at the same cycle. Every handle on a
// queue shares its clock and its dispatch loop (Now, Step, Run, RunUntil).
// The zero value is not ready to use; call NewEngine or System.Engine.
type Engine struct {
	*queue
	rank uint64
	seq  uint64
}

// NewEngine returns a one-domain queue with the clock at cycle zero: a
// FIFO tie-break among events of one cycle.
func NewEngine() *Engine {
	return &Engine{queue: newQueue(1)}
}

// Now returns the current simulated cycle.
func (q *queue) Now() Cycle { return q.now }

// Dispatched returns the total number of events dispatched so far, from
// every domain of the queue.
func (q *queue) Dispatched() uint64 { return q.nEvent }

// Pending returns the number of events waiting in the queue.
func (q *queue) Pending() int { return q.nRing + len(q.far) }

// Schedule runs fn at the given absolute cycle. Scheduling in the past
// panics: it always indicates a modeling bug.
func (e *Engine) Schedule(when Cycle, fn func()) {
	e.push(when, fn, nil, 0)
}

// After runs fn delay cycles from now.
func (e *Engine) After(delay Cycle, fn func()) {
	e.push(e.now+delay, fn, nil, 0)
}

// ScheduleArg runs argFn(arg) at the given absolute cycle. It is the
// allocation-free way to deliver a small payload: argFn is typically a
// method value bound once at construction, and arg rides in the event.
func (e *Engine) ScheduleArg(when Cycle, argFn func(uint64), arg uint64) {
	e.push(when, nil, argFn, arg)
}

// push queues an event due at or after now under the engine's next key:
// at the tail of its (cycle, rank) bucket when the cycle lies within the
// ring, else in the far heap.
func (e *Engine) push(when Cycle, fn func(), argFn func(uint64), arg uint64) {
	q := e.queue
	if when < q.now {
		panic(fmt.Sprintf("sim: schedule at cycle %d before now %d", when, q.now))
	}
	e.seq++
	if e.seq > maxSeq {
		panic("sim: engine sequence overflow (2^48 events from one source)")
	}
	key := e.rank<<rankShift | e.seq
	if when-q.now >= ringSize {
		q.far = append(q.far, event{when: when, key: key, fn: fn, argFn: argFn, arg: arg})
		q.siftUp(len(q.far) - 1)
		return
	}
	n := q.free
	if n >= 0 {
		q.free = q.nodes[n].next
	} else {
		n = int32(len(q.nodes))
		q.nodes = append(q.nodes, node{})
	}
	nd := &q.nodes[n]
	nd.key, nd.fn, nd.argFn, nd.arg, nd.next = key, fn, argFn, arg, -1
	q.nRing++
	b := int(when&ringMask)<<q.shift | int(e.rank)
	bk := &q.buckets[b]
	if occ := &q.occ[b>>6]; *occ&(1<<(b&63)) == 0 {
		*occ |= 1 << (b & 63)
		bk.head = n
	} else {
		q.nodes[bk.tail].next = n
	}
	bk.tail = n
}

// ringFront returns the bucket of the ring's earliest event, or -1 when
// the ring is empty. The scan starts at now's first slot and wraps: the
// buckets below it in its own word hold the ring's latest cycles.
func (q *queue) ringFront() int {
	if q.nRing == 0 {
		return -1
	}
	s := int(q.now&ringMask) << q.shift
	w := s >> 6
	if m := q.occ[w] >> (s & 63); m != 0 {
		return s + bits.TrailingZeros64(m)
	}
	words := len(q.occ)
	for i := 1; i <= words; i++ {
		ww := (w + i) & (words - 1)
		if m := q.occ[ww]; m != 0 {
			return ww<<6 + bits.TrailingZeros64(m)
		}
	}
	panic("sim: ring count and occupancy disagree")
}

// next finds the earliest queued event: its ring bucket, or -1 for the far
// heap's top, and its cycle. ok is false when the queue is empty. A
// bucket's cycle follows from its distance to now's, so only a tie with
// the heap's top reads a node.
func (q *queue) next() (b int, when Cycle, ok bool) {
	b = q.ringFront()
	if b < 0 {
		if len(q.far) == 0 {
			return 0, 0, false
		}
		return -1, q.far[0].when, true
	}
	when = q.now + Cycle((b>>q.shift-int(q.now&ringMask))&ringMask)
	if len(q.far) > 0 {
		if f := &q.far[0]; f.when < when || f.when == when && f.key < q.nodes[q.buckets[b].head].key {
			return -1, f.when, true
		}
	}
	return b, when, true
}

// NextTime returns the cycle of the earliest pending event. ok is false
// when the queue is empty.
func (q *queue) NextTime() (when Cycle, ok bool) {
	_, when, ok = q.next()
	return when, ok
}

// siftUp restores the heap property from leaf i toward the root.
func (q *queue) siftUp(i int) {
	h := q.far
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

// siftDown restores the heap property from the root over n elements.
func (q *queue) siftDown(n int) {
	h := q.far
	ev := h[0]
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
			if h[c].before(&h[best]) {
				best = c
			}
		}
		if !h[best].before(&ev) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = ev
}

// dispatch pops the earliest event, found by next in bucket b (-1: the
// far heap) at cycle when, advances the clock to it and runs the event.
func (q *queue) dispatch(b int, when Cycle) {
	var (
		fn    func()
		argFn func(uint64)
		arg   uint64
	)
	if b < 0 {
		h := q.far
		fn, argFn, arg = h[0].fn, h[0].argFn, h[0].arg
		n := len(h) - 1
		h[0] = h[n]
		h[n].fn, h[n].argFn = nil, nil // release the closures; the slot stays pooled
		q.far = h[:n]
		if n > 0 {
			q.siftDown(n)
		}
	} else {
		bk := &q.buckets[b]
		n := bk.head
		nd := &q.nodes[n]
		fn, argFn, arg = nd.fn, nd.argFn, nd.arg
		nd.fn, nd.argFn = nil, nil // release the closures
		if nd.next < 0 {
			q.occ[b>>6] &^= uint64(1) << (b & 63)
		} else {
			bk.head = nd.next
		}
		nd.next = q.free
		q.free = n
		q.nRing--
	}
	q.now = when
	q.nEvent++
	if fn != nil {
		fn()
	} else {
		argFn(arg)
	}
}

// Step dispatches the next event, advancing the clock to its cycle.
// It reports whether an event was dispatched.
func (q *queue) Step() bool {
	b, when, ok := q.next()
	if ok {
		q.dispatch(b, when)
	}
	return ok
}

// Run dispatches events until the queue is empty and returns the final
// cycle.
func (q *queue) Run() Cycle {
	for q.Step() {
	}
	return q.now
}

// RunUntil dispatches events until the queue is empty or the clock would
// pass the limit. Events scheduled exactly at the limit are dispatched. It
// reports whether the queue was drained.
func (q *queue) RunUntil(limit Cycle) bool {
	for {
		b, when, ok := q.next()
		if !ok {
			return true
		}
		if when > limit {
			return false
		}
		q.dispatch(b, when)
	}
}
