package sim

import "fmt"

// System is a set of synchronization domains, each with its own Engine,
// run on one goroutine in conservative windows. Cross-domain events go
// through Send/SendArg, which insert straight into the destination engine
// under a key taken from the sender's counter (see engine.go), so every
// domain dispatches its events in the fixed total order (cycle, source
// domain, source sequence).
//
// A window starts at the earliest queued event, next, and runs every
// engine in domain order to next+lookahead-1. A cross-domain send from a
// domain at cycle t ≥ next delivers at or after t+lookahead, past the
// window, so no engine can have run beyond a delivery when it arrives.
// Where the windows fall therefore never changes what any domain
// dispatches, or in which order.
//
// The contract components must follow:
//
//   - A domain's event callbacks touch only state owned by that domain.
//   - Cross-domain interaction happens only via Send/SendArg, with a
//     delivery time at least `lookahead` cycles after the sender's clock.
//   - Shared read-only state (configuration, compiled traces) is fair game.
type System struct {
	lookahead Cycle
	engines   []*Engine
	epochs    uint64 // windows run
}

const maxCycle = ^Cycle(0)

// NewSystem builds a system of n domains with the given lookahead.
func NewSystem(n int, lookahead Cycle) *System {
	if n < 1 {
		panic(fmt.Sprintf("sim: system needs at least one domain, got %d", n))
	}
	if lookahead < 1 {
		panic(fmt.Sprintf("sim: lookahead %d < 1", lookahead))
	}
	s := &System{lookahead: lookahead, engines: make([]*Engine, n)}
	for i := range s.engines {
		s.engines[i] = NewEngine()
		s.engines[i].SetRank(i)
	}
	return s
}

// Engine returns domain i's engine. Components schedule their intra-domain
// events directly on it.
func (s *System) Engine(i int) *Engine { return s.engines[i] }

// Domains returns the number of domains.
func (s *System) Domains() int { return len(s.engines) }

// Lookahead returns the minimum cross-domain latency, which is also the
// window width.
func (s *System) Lookahead() Cycle { return s.lookahead }

// checkSend validates a cross-domain delivery time against the lookahead
// contract. Violations always indicate a modeling bug, so they panic.
func (s *System) checkSend(src int, when Cycle) {
	if min := s.engines[src].Now() + s.lookahead; when < min {
		panic(fmt.Sprintf("sim: send from domain %d at cycle %d delivers at %d, before lookahead horizon %d",
			src, s.engines[src].Now(), when, min))
	}
}

// Send schedules fn on domain dst at absolute cycle when. The delivery
// must respect the lookahead: when >= sender's now + lookahead.
func (s *System) Send(src, dst int, when Cycle, fn func()) {
	if src == dst {
		s.engines[src].Schedule(when, fn)
		return
	}
	s.checkSend(src, when)
	s.engines[dst].scheduleKeyed(when, s.engines[src].nextKey(), fn, nil, 0)
}

// SendArg schedules argFn(arg) on domain dst at absolute cycle when; the
// allocation-free counterpart of Send for payload-carrying events.
func (s *System) SendArg(src, dst int, when Cycle, argFn func(uint64), arg uint64) {
	if src == dst {
		s.engines[src].ScheduleArg(when, argFn, arg)
		return
	}
	s.checkSend(src, when)
	s.engines[dst].scheduleKeyed(when, s.engines[src].nextKey(), nil, argFn, arg)
}

// RunUntil runs windows until every queue is empty or the next event lies
// past limit. Events scheduled exactly at the limit are dispatched. It
// reports whether all queues were drained.
func (s *System) RunUntil(limit Cycle) bool {
	for {
		next := maxCycle
		queued := false
		for _, e := range s.engines {
			if t, ok := e.NextTime(); ok && t <= next {
				next, queued = t, true
			}
		}
		if !queued {
			return true
		}
		if next > limit {
			return false
		}
		hi := next + s.lookahead - 1
		if hi < next || hi > limit { // overflow, or the final window
			hi = limit
		}
		for _, e := range s.engines {
			e.RunUntil(hi)
		}
		s.epochs++
	}
}

// Run executes windows until every queue is empty and returns the latest
// domain clock. Running out of representable time with events still
// queued always indicates a modeling bug (events scheduled within one
// lookahead of the cycle-counter maximum), so it panics rather than
// silently dropping them; use RunUntil to observe the drained flag.
func (s *System) Run() Cycle {
	horizon := maxCycle - s.lookahead
	if !s.RunUntil(horizon) {
		panic(fmt.Sprintf("sim: Run stopped with %d events still queued past cycle %d", s.Pending(), horizon))
	}
	return s.Now()
}

// Now returns the maximum domain clock — the system-wide notion of "how
// far has simulated time progressed".
func (s *System) Now() Cycle {
	var t Cycle
	for _, e := range s.engines {
		if n := e.Now(); n > t {
			t = n
		}
	}
	return t
}

// Pending returns the total number of queued events across domains.
func (s *System) Pending() int {
	n := 0
	for _, e := range s.engines {
		n += e.Pending()
	}
	return n
}

// Epochs returns the number of windows run — the schedule's overhead
// diagnostic.
func (s *System) Epochs() uint64 { return s.epochs }

// Dispatched returns the total events dispatched across domains.
func (s *System) Dispatched() uint64 {
	var n uint64
	for _, e := range s.engines {
		n += e.Dispatched()
	}
	return n
}
