package sim

import "fmt"

// System is a set of event domains sharing one event queue. Each domain
// schedules through its own Engine, whose rank breaks same-cycle ties, so
// the queue dispatches every event in the fixed total order (cycle,
// source domain, source sequence) and each domain sees its own events in
// that order. Every domain reads the one clock: inside any callback, each
// domain's Now is the event's cycle. Now, Pending, Dispatched, Step, Run
// and RunUntil act on the shared queue.
type System struct {
	*queue
	engines []*Engine
}

// NewSystem builds a system of n domains, ranked 0 to n-1. A rank must
// fit in an event key's high bits.
func NewSystem(n int) *System {
	if n < 1 || n > 1<<(64-rankShift) {
		panic(fmt.Sprintf("sim: system needs 1 to %d domains, got %d", 1<<(64-rankShift), n))
	}
	q := newQueue(n)
	s := &System{queue: q, engines: make([]*Engine, n)}
	for i := range s.engines {
		s.engines[i] = &Engine{queue: q, rank: uint64(i)}
	}
	return s
}

// Engine returns domain i's engine.
func (s *System) Engine(i int) *Engine { return s.engines[i] }

// Domains returns the number of domains.
func (s *System) Domains() int { return len(s.engines) }

// Epochs returns 0: one queue runs no synchronization windows. It stays
// only because perfbench reads it for its sim.epochs figure.
func (s *System) Epochs() uint64 { return 0 }
