package sim

import "testing"

// orderRank is the oracle's own domain in an 8-domain system: the other
// domains' events come from ranks on both sides of it, so its
// self-scheduled events sort between theirs at the same cycle.
const orderRank = 3

// oracleEvent is one pending event as the reference queue sees it.
type oracleEvent struct {
	when  Cycle
	key   uint64
	id    int
	child Cycle // >0: on dispatch, self-schedule one more event child-1 cycles ahead
}

// orderOracle drives the shared queue of an 8-domain System and a
// reference queue that shares no code with it: a slice of pending
// (when, key) pairs searched linearly for its minimum. Every dispatch must
// be the reference minimum, and Pending, NextTime and Now must agree with
// the reference after every step.
type orderOracle struct {
	tb      testing.TB
	sys     *System
	e       *Engine   // domain orderRank's engine
	seq     [8]uint64 // per-rank sequence, mirroring each domain's engine
	pending []oracleEvent
	ids     int
	fired   uint64
}

func newOrderOracle(tb testing.TB) *orderOracle {
	sys := NewSystem(8)
	return &orderOracle{tb: tb, sys: sys, e: sys.Engine(orderRank)}
}

// oracleDelay maps a class byte and a value onto the delays the oracle covers:
// within one bucket's neighbourhood (0–7), across the ring (8–255), the
// ring's last cycle (255), its first cycles past the edge (256, 257), and
// deep into the far heap (2^10–2^20).
func oracleDelay(class byte, v uint64) Cycle {
	switch class % 6 {
	case 0:
		return Cycle(v % 8)
	case 1:
		return 8 + Cycle(v%248)
	case 2:
		return 255
	case 3:
		return 256
	case 4:
		return 257
	default:
		return 1<<10 + Cycle(v%(1<<20-1<<10+1))
	}
}

func (o *orderOracle) add(when Cycle, key uint64, child Cycle) int {
	id := o.ids
	o.ids++
	o.pending = append(o.pending, oracleEvent{when: when, key: key, id: id, child: child})
	return id
}

// self schedules on domain orderRank's engine, through Schedule or
// ScheduleArg.
func (o *orderOracle) self(when Cycle, child Cycle, arg bool) {
	o.seq[orderRank]++
	id := o.add(when, uint64(orderRank)<<rankShift|o.seq[orderRank], child)
	if arg {
		o.e.ScheduleArg(when, o.fire, uint64(id))
	} else {
		o.e.Schedule(when, func() { o.fire(uint64(id)) })
	}
}

// other schedules an event from domain r (never orderRank) through that
// domain's engine.
func (o *orderOracle) other(when Cycle, r int) {
	o.seq[r]++
	id := o.add(when, uint64(r)<<rankShift|o.seq[r], 0)
	o.sys.Engine(r).ScheduleArg(when, o.fire, uint64(id))
}

// otherRank picks a rank below or above orderRank.
func otherRank(v byte) int {
	r := int(v % 7)
	if r >= orderRank {
		r++
	}
	return r
}

// min returns the index of the reference queue's (when, key) minimum.
func (o *orderOracle) min() int {
	best := 0
	for i, p := range o.pending {
		b := o.pending[best]
		if p.when < b.when || (p.when == b.when && p.key < b.key) {
			best = i
		}
	}
	return best
}

// check compares the queue's summary with the reference.
func (o *orderOracle) check(where string) {
	o.tb.Helper()
	if got := o.e.Pending(); got != len(o.pending) {
		o.tb.Fatalf("%s: Pending() = %d, reference holds %d", where, got, len(o.pending))
	}
	when, ok := o.e.NextTime()
	if len(o.pending) == 0 {
		if ok {
			o.tb.Fatalf("%s: NextTime() = %d on an empty reference", where, when)
		}
		return
	}
	if want := o.pending[o.min()].when; !ok || when != want {
		o.tb.Fatalf("%s: NextTime() = %d, %v; reference minimum at %d", where, when, ok, want)
	}
	if o.e.Dispatched() != o.fired {
		o.tb.Fatalf("%s: Dispatched() = %d, callbacks ran %d", where, o.e.Dispatched(), o.fired)
	}
}

// fire is every event's callback: the dispatched event must be the
// reference minimum, at the engine's clock.
func (o *orderOracle) fire(id uint64) {
	o.tb.Helper()
	o.fired++
	if len(o.pending) == 0 {
		o.tb.Fatalf("event %d dispatched from an empty reference", id)
	}
	i := o.min()
	want := o.pending[i]
	o.pending[i] = o.pending[len(o.pending)-1]
	o.pending = o.pending[:len(o.pending)-1]
	if int(id) != want.id || o.e.Now() != want.when {
		o.tb.Fatalf("dispatched event %d at cycle %d; reference minimum is event %d (cycle %d, key %#x)",
			id, o.e.Now(), want.id, want.when, want.key)
	}
	o.check("in dispatch")
	if want.child > 0 {
		o.self(o.e.Now()+want.child-1, 0, false)
	}
}

// runOrderOps decodes ops into schedules from several domains, steps and
// bounded runs, checks each against the reference, and drains the queue.
// Bytes past the end read as zero, so any input is a valid program.
func runOrderOps(tb testing.TB, ops []byte) {
	tb.Helper()
	o := newOrderOracle(tb)
	pos := 0
	take := func() byte {
		if pos >= len(ops) {
			return 0
		}
		pos++
		return ops[pos-1]
	}
	value := func() uint64 {
		return uint64(take()) | uint64(take())<<8 | uint64(take())<<16
	}
	for pos < len(ops) {
		now := o.e.Now()
		switch op := take(); op % 8 {
		case 0, 1: // self-scheduled, closure or argument form
			c := take()
			o.self(now+oracleDelay(c, value()), 0, op%8 == 1)
		case 2: // self-scheduled, spawning a child on dispatch
			c, cc := take(), take()
			o.self(now+oracleDelay(c, value()), 1+oracleDelay(cc, uint64(take())), false)
		case 3: // one event from a lower or higher rank
			c, r := take(), take()
			o.other(now+oracleDelay(c, value()), otherRank(r))
		case 4: // a burst at one cycle: other ranks' events out of rank order, and a self event
			c := take()
			when := now + oracleDelay(c, value())
			n := 2 + int(take()%4)
			for i := 0; i < n; i++ {
				o.other(when, otherRank(take()))
			}
			o.self(when, 0, true)
		case 5: // tie with a pending event: ring against ring, or far against ring
			if len(o.pending) == 0 {
				break
			}
			p := o.pending[int(take())%len(o.pending)]
			if r := take(); r%2 == 0 {
				o.self(p.when, 0, false)
			} else {
				o.other(p.when, otherRank(r/2))
			}
		case 6: // Step
			want := len(o.pending) > 0
			if got := o.e.Step(); got != want {
				tb.Fatalf("Step() = %v with %d events in the reference", got, len(o.pending))
			}
		case 7: // RunUntil a limit that may fall inside the ring, on a bucket or between
			c := take()
			limit := now + oracleDelay(c, value())
			drained := o.e.RunUntil(limit)
			if drained != (len(o.pending) == 0) {
				tb.Fatalf("RunUntil(%d) = %v with %d events in the reference", limit, drained, len(o.pending))
			}
			if !drained {
				if next := o.pending[o.min()].when; next <= limit {
					tb.Fatalf("RunUntil(%d) stopped with an event due at %d", limit, next)
				}
			}
		}
		o.check("after op")
	}
	o.e.Run()
	o.check("after Run")
	if len(o.pending) != 0 {
		tb.Fatalf("Run left %d reference events undispatched", len(o.pending))
	}
}

// TestEngineOrderOracle runs random programs over every part of the queue
// — delays inside, across and past the ring, far events tied with ring
// events, events from lower and higher ranks queued out of key order
// within one cycle, and RunUntil limits that stop inside the ring —
// against the sorted reference, checking Pending and NextTime after every
// step.
func TestEngineOrderOracle(t *testing.T) {
	rng := NewRand(11)
	for trial := 0; trial < 200; trial++ {
		ops := make([]byte, 1500)
		for i := range ops {
			ops[i] = byte(rng.Uint64())
		}
		runOrderOps(t, ops)
	}
}

// FuzzEngineOrder decodes arbitrary bytes into the oracle's operations.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 2, 255, 0, 0, 0, 3, 0, 0, 0, 0, 6, 6, 6})
	f.Add([]byte{4, 0, 3, 0, 0, 3, 6, 1, 5, 5, 0, 5, 1, 7, 0, 2, 0, 0})
	f.Add([]byte{3, 5, 0, 1, 0, 2, 0, 1, 0, 0, 0, 7, 4, 0, 0, 0, 5, 0, 3, 6, 6, 6})
	f.Add([]byte{2, 1, 200, 0, 0, 0, 0, 7, 1, 100, 0, 0, 4, 1, 3, 0, 0, 3, 6, 1, 0, 7, 5, 0, 0, 1})
	// A far event at 256, then, one cycle on, a ring event tied with it.
	f.Add([]byte{0, 3, 0, 0, 0, 0, 0, 1, 0, 0, 6, 0, 2, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		runOrderOps(t, ops)
	})
}
