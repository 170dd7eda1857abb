package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

func TestSystemValidation(t *testing.T) {
	for _, n := range []int{0, 1<<(64-rankShift) + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSystem(%d) did not panic", n)
				}
			}()
			NewSystem(n)
		}()
	}
}

// TestSystemCanonicalMergeOrder pins the cross-domain tie order:
// ascending cycle, ties broken by source domain, then by schedule order
// within a source — regardless of the order the events were queued in.
func TestSystemCanonicalMergeOrder(t *testing.T) {
	s := NewSystem(3)
	var order []string
	deliver := func(tag string) func() {
		return func() { order = append(order, tag) }
	}
	// Domain 2 queues its events first, but domain 1's must still
	// dispatch first on ties (lower source domain).
	s.Engine(2).Schedule(0, func() {
		s.Engine(2).Schedule(50, deliver("d2#0@50"))
		s.Engine(2).Schedule(40, deliver("d2#1@40"))
	})
	s.Engine(1).Schedule(10, func() {
		s.Engine(1).Schedule(50, deliver("d1#0@50"))
		s.Engine(1).Schedule(50, deliver("d1#1@50"))
	})
	s.Run()
	want := []string{"d2#1@40", "d1#0@50", "d1#1@50", "d2#0@50"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("merge order = %v, want %v", order, want)
	}
}

// TestDomainsShareOneClock: inside every callback, every domain's engine
// reads the event's own cycle, whichever domain scheduled it. Domain 0's
// event at cycle 5 must not run before domain 1's at cycle 3.
func TestDomainsShareOneClock(t *testing.T) {
	s := NewSystem(3)
	var order []Cycle
	at := func(when Cycle) func() {
		return func() {
			order = append(order, when)
			for i := 0; i < s.Domains(); i++ {
				if got := s.Engine(i).Now(); got != when {
					t.Errorf("event at cycle %d: domain %d reads Now() = %d", when, i, got)
				}
			}
		}
	}
	s.Engine(0).Schedule(0, func() {
		at(0)()
		s.Engine(0).Schedule(5, at(5))
		s.Engine(0).Schedule(300, at(300)) // past the ring, in the far heap
	})
	s.Engine(1).Schedule(3, func() {
		at(3)()
		s.Engine(1).Schedule(4, at(4))
	})
	s.Engine(2).Schedule(4, at(4))
	if got := s.Run(); got != 300 {
		t.Errorf("Run() = %d, want 300", got)
	}
	if want := []Cycle{0, 3, 4, 4, 5, 300}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("dispatched at cycles %v, want %v", order, want)
	}
}

func TestSystemRunUntilExactlyAtLimit(t *testing.T) {
	s := NewSystem(2)
	var hits []Cycle
	s.Engine(1).Schedule(100, func() { hits = append(hits, 100) })
	s.Engine(0).Schedule(101, func() { hits = append(hits, 101) })
	if s.RunUntil(100) {
		t.Fatal("RunUntil(100) reported drained with an event pending at 101")
	}
	if len(hits) != 1 || hits[0] != 100 {
		t.Fatalf("dispatched %v, want [100]", hits)
	}
	if !s.RunUntil(200) {
		t.Fatal("RunUntil(200) did not drain")
	}
	if len(hits) != 2 {
		t.Fatalf("dispatched %v, want [100 101]", hits)
	}
}

// TestSystemRunUntilMergeOrderAtLimit: several source domains queue
// events exactly at RunUntil's limit and one cycle past it. Every event at
// the limit dispatches, in (cycle, source domain, schedule order), and
// none past it.
func TestSystemRunUntilMergeOrderAtLimit(t *testing.T) {
	const limit = 100
	s := NewSystem(5)
	var order []string
	deliver := func(tag string) func() {
		return func() { order = append(order, tag) }
	}
	for src := 4; src >= 1; src-- {
		e := s.Engine(src)
		e.Schedule(90, func() {
			e.Schedule(limit+1, deliver(fmt.Sprintf("d%d@%d", src, limit+1)))
			e.Schedule(limit, deliver(fmt.Sprintf("d%d@%d", src, limit)))
		})
	}
	s.Engine(0).Schedule(95, deliver("d0@95"))
	if s.RunUntil(limit) {
		t.Fatal("drained despite events at 101")
	}
	want := []string{"d0@95",
		"d1@100", "d2@100", "d3@100", "d4@100"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("order up to the limit = %v, want %v", order, want)
	}
}

// synthRun drives a synthetic multi-domain cascade and returns a full
// dispatch trace. Each event schedules its children from its own domain's
// engine, using a deterministic PRNG for fan-out, target domain and
// delay. The cascade branches supercritically (just under two expected
// children per event), so a per-domain step cap bounds it; the cap reads
// only the domain's own log length, whose growth follows the canonical
// dispatch order.
func synthRun() string {
	const domains, hop = 5, 7
	const maxStepsPerDomain = 1500
	s := NewSystem(domains)
	logs := make([][]string, domains)
	var step func(d int, state uint64)
	step = func(d int, state uint64) {
		if len(logs[d]) >= maxStepsPerDomain {
			return // saturated: let the remaining chains die out
		}
		e := s.Engine(d)
		logs[d] = append(logs[d], fmt.Sprintf("d%d@%d:%x", d, e.Now(), state))
		if state%13 == 0 {
			return // chain dies out
		}
		r := NewRand(state)
		for i := 0; i < 1+int(state%3); i++ {
			dst := r.Intn(domains)
			delay := Cycle(hop + r.Intn(20))
			next := state*6364136223846793005 + uint64(i) + 1442695040888963407
			e.ScheduleArg(e.Now()+delay, func(v uint64) { step(dst, v) }, next)
		}
	}
	for d := 0; d < domains; d++ {
		d := d
		seed := uint64(d + 1)
		s.Engine(d).Schedule(Cycle(d), func() { step(d, seed) })
	}
	s.RunUntil(4000)
	out := ""
	for d := 0; d < domains; d++ {
		for _, l := range logs[d] {
			out += l + "\n"
		}
	}
	return fmt.Sprintf("now=%d dispatched=%d\n%s", s.Now(), s.Dispatched(), out)
}

// synthDigest pins a SHA-256 of synthRun's dispatch trace. The trace is
// a pure function of the per-domain event streams and the (cycle, source
// domain, schedule order) keys, so a change to how the queue stores or
// pops events must leave it unchanged; a change that moves it reorders
// events.
const synthDigest = "83cf2d5501832f37404e50d11e199357d084d627dc15fee081eae8cc4b5f3782"

func TestSystemSynthDigest(t *testing.T) {
	ref := synthRun()
	if len(ref) < 100 {
		t.Fatalf("synthetic cascade too small to be meaningful:\n%s", ref)
	}
	sum := sha256.Sum256([]byte(ref))
	if got := hex.EncodeToString(sum[:]); got != synthDigest {
		t.Errorf("dispatch trace digest %s, pinned %s\n%.300s", got, synthDigest, ref)
	}
}

// TestSystemReplyInterleavesWithLocalWork: a request from domain 0 runs
// on domain 1, whose reply lands back among domain 0's own events in cycle
// order.
func TestSystemReplyInterleavesWithLocalWork(t *testing.T) {
	s := NewSystem(2)
	var order []string
	// At cycle 5 domain 0 pings domain 1 (arriving at 15); domain 1
	// replies at once (arriving at 25). Domain 0 also has local work at 24
	// and 26: the 24 runs before the reply, the 26 after it.
	s.Engine(0).Schedule(5, func() {
		s.Engine(0).Schedule(15, func() {
			s.Engine(1).Schedule(25, func() { order = append(order, "reply@25") })
		})
	})
	s.Engine(0).Schedule(24, func() { order = append(order, "local@24") })
	s.Engine(0).Schedule(26, func() { order = append(order, "local@26") })
	s.Run()
	want := []string{"local@24", "reply@25", "local@26"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("reply order = %v, want %v", order, want)
	}
}
