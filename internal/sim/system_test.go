package sim

import (
	"fmt"
	"runtime"
	"testing"
)

func TestSystemValidation(t *testing.T) {
	for _, tc := range []struct {
		n  int
		la Cycle
	}{{0, 1}, {1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSystem(%d, %d) did not panic", tc.n, tc.la)
				}
			}()
			NewSystem(tc.n, tc.la)
		}()
	}
}

// TestSystemCanonicalMergeOrder pins the epoch-barrier merge order:
// ascending delivery cycle, ties broken by source domain, then by send
// order within a source — regardless of the order the sends were made in.
func TestSystemCanonicalMergeOrder(t *testing.T) {
	s := NewSystem(3, 10)
	var order []string
	deliver := func(tag string) func() {
		return func() { order = append(order, tag) }
	}
	// Domain 2 sends first in wall-clock terms, but domain 1's messages
	// must still dispatch first on ties (lower source domain).
	s.Engine(2).Schedule(0, func() {
		s.Send(2, 0, 50, deliver("d2#0@50"))
		s.Send(2, 0, 40, deliver("d2#1@40"))
	})
	s.Engine(1).Schedule(0, func() {
		s.Send(1, 0, 50, deliver("d1#0@50"))
		s.Send(1, 0, 50, deliver("d1#1@50"))
	})
	s.Run()
	want := []string{"d2#1@40", "d1#0@50", "d1#1@50", "d2#0@50"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("merge order = %v, want %v", order, want)
	}
}

func TestSystemLookaheadViolationPanics(t *testing.T) {
	s := NewSystem(2, 10)
	s.Engine(0).Schedule(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("Send delivering inside the lookahead horizon did not panic")
			}
		}()
		s.Send(0, 1, 105, func() {}) // < now(100) + lookahead(10)
	})
	s.Run()
}

func TestSystemSameDomainSendIsInline(t *testing.T) {
	s := NewSystem(2, 10)
	ran := false
	s.Engine(0).Schedule(100, func() {
		// src == dst bypasses the mailbox, so sub-lookahead delays are fine.
		s.Send(0, 0, 101, func() { ran = true })
	})
	s.Run()
	if !ran {
		t.Fatal("same-domain send was not delivered")
	}
}

func TestSystemRunUntilExactlyAtLimit(t *testing.T) {
	s := NewSystem(2, 5)
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

func TestSystemStopIdempotent(t *testing.T) {
	s := NewSystem(4, 8)
	s.Stop() // never started: no-op
	s.SetWorkers(2)
	for d := 0; d < 4; d++ {
		d := d
		s.Engine(d).Schedule(Cycle(d), func() { s.Send(d, (d+1)%4, Cycle(d)+8, func() {}) })
	}
	s.Run()
	s.Stop()
	s.Stop() // second stop: still a no-op
}

// TestSystemRunPanicsOnNonDrain pins Run's refusal to silently drop
// events: a callback scheduling within one lookahead of the cycle-counter
// maximum leaves the queue non-drainable at Run's horizon, which must
// surface as a panic, not a quiet return.
func TestSystemRunPanicsOnNonDrain(t *testing.T) {
	s := NewSystem(2, 10)
	s.Engine(0).Schedule(5, func() {
		s.Engine(0).Schedule(^Cycle(0)-3, func() {})
	})
	defer func() {
		if recover() == nil {
			t.Error("Run returned with an event queued past its horizon; want panic")
		}
	}()
	s.Run()
}

// TestSystemClampedFinalEpochMergeOrder is the adversarial case for the
// final epoch: RunUntil's limit clamps the horizon below next+lookahead-1,
// several source domains land sends exactly at the receiver's lookahead
// boundary, and the canonical (cycle, src, seq) order must hold at every
// worker count — including delivery of boundary sends that a sloppy clamp
// would strand past the limit.
func TestSystemClampedFinalEpochMergeOrder(t *testing.T) {
	const lookahead = 10
	run := func(workers int) []string {
		s := NewSystem(5, lookahead)
		s.SetWorkers(workers)
		defer s.Stop()
		var order []string
		deliver := func(tag string) func() {
			return func() { order = append(order, tag) }
		}
		// Sources 1-4 all become runnable at cycle 90 and send to domain 0
		// with deliveries at exactly now+lookahead = 100 (the boundary) and
		// beyond; the limit 100 clamps the final epoch.
		for src := 1; src < 5; src++ {
			src := src
			s.Engine(src).Schedule(90, func() {
				now := s.Engine(src).Now()
				s.Send(src, 0, now+lookahead+1, deliver(fmt.Sprintf("d%d@%d", src, now+lookahead+1)))
				s.Send(src, 0, now+lookahead, deliver(fmt.Sprintf("d%d@%d", src, now+lookahead)))
			})
		}
		s.Engine(0).Schedule(95, deliver("d0@95"))
		if s.RunUntil(100) {
			t.Fatalf("workers=%d: drained despite deliveries at 101", workers)
		}
		return order
	}
	want := []string{"d0@95",
		"d1@100", "d2@100", "d3@100", "d4@100"}
	for _, w := range []int{1, 4, 8} {
		got := run(w)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("workers=%d: clamped-epoch order = %v, want %v", w, got, want)
		}
	}
}

// TestSystemStopThenReuse pins the pool lifecycle contract: after Stop the
// system keeps working (epochs fall back to inline execution, never a
// silently restarted pool), SetWorkers re-arms a fresh pool cleanly, and
// every Stop joins its goroutines (checked by goroutine count; the -race
// CI run makes any unjoined worker visible as well).
func TestSystemStopThenReuse(t *testing.T) {
	base := runtime.NumGoroutine()
	s := NewSystem(4, 8)
	s.SetWorkers(4)
	ping := func(at Cycle) {
		for d := 0; d < 4; d++ {
			d := d
			s.Engine(d).Schedule(at, func() { s.Send(d, (d+1)%4, at+8, func() {}) })
		}
	}
	ping(0)
	s.Run()
	before := s.Dispatched()
	if before == 0 {
		t.Fatal("first parallel run dispatched nothing")
	}
	s.Stop()
	if g := runtime.NumGoroutine(); g > base {
		t.Errorf("goroutines after Stop: %d, want <= baseline %d", g, base)
	}
	// Stopped system: epochs run inline, no pool resurrection.
	ping(100)
	s.Run()
	if s.Dispatched() <= before {
		t.Fatal("stopped system did not execute inline")
	}
	if g := runtime.NumGoroutine(); g > base {
		t.Errorf("inline epochs after Stop started goroutines: %d > baseline %d", g, base)
	}
	// Re-arm: a fresh pool, cleanly joined by the next Stop.
	s.SetWorkers(2)
	ping(200)
	s.Run()
	s.Stop()
	if g := runtime.NumGoroutine(); g > base {
		t.Errorf("goroutines after re-arm + Stop: %d, want <= baseline %d", g, base)
	}
}

func TestSystemSetWorkersWhileRunningPanics(t *testing.T) {
	s := NewSystem(4, 8)
	s.SetWorkers(4)
	defer s.Stop()
	for d := 0; d < 4; d++ {
		d := d
		s.Engine(d).Schedule(0, func() { s.Send(d, (d+1)%4, 8, func() {}) })
	}
	s.Run() // starts the pool
	defer func() {
		if recover() == nil {
			t.Error("SetWorkers on a running pool did not panic")
		}
	}()
	s.SetWorkers(2)
}

// synthRun drives a synthetic multi-domain cascade and returns a full
// dispatch trace. Each domain's callback mutates only domain-owned state;
// cross-domain sends use a deterministic PRNG for fan-out and delays.
// The cascade branches supercritically (just under two expected children
// per event), so a per-domain step cap bounds it; the cap reads only the
// domain's own log length, whose growth follows the canonical dispatch
// order and is therefore identical at every worker count.
func synthRun(workers int) string {
	const domains, lookahead = 5, 7
	const maxStepsPerDomain = 1500
	s := NewSystem(domains, lookahead)
	s.SetWorkers(workers)
	defer s.Stop()
	logs := make([][]string, domains) // domain-owned: no cross-domain writes
	var step func(d int, state uint64)
	step = func(d int, state uint64) {
		if len(logs[d]) >= maxStepsPerDomain {
			return // saturated: let the remaining chains die out
		}
		logs[d] = append(logs[d], fmt.Sprintf("d%d@%d:%x", d, s.Engine(d).Now(), state))
		if state%13 == 0 {
			return // chain dies out
		}
		r := NewRand(state)
		for i := 0; i < 1+int(state%3); i++ {
			dst := r.Intn(domains)
			delay := Cycle(lookahead + r.Intn(20))
			next := state*6364136223846793005 + uint64(i) + 1442695040888963407
			s.SendArg(d, dst, s.Engine(d).Now()+delay, func(v uint64) { step(dst, v) }, next)
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

// TestSystemWorkerCountByteIdentity is the determinism contract: the same
// event cascade produces an identical dispatch trace at any worker count,
// including inline execution. Explicit (rank, seq) event keys fix one
// canonical dispatch order at send time, so fused same-group inserts
// (every send at one worker) and mailbox delivery (cross-group sends at
// two or more) replay the single reference trace byte for byte.
func TestSystemWorkerCountByteIdentity(t *testing.T) {
	ref := synthRun(1)
	if len(ref) < 100 {
		t.Fatalf("synthetic cascade too small to be meaningful:\n%s", ref)
	}
	for _, w := range []int{2, 3, 8} {
		if got := synthRun(w); got != ref {
			t.Errorf("workers=%d diverged from reference\nreference:\n%.300s\ngot:\n%.300s",
				w, ref, got)
		}
	}
}

// stressRun drives the CI -race workout: many very short epochs (tight
// lookahead, mostly boundary-tight sends, frequent barriers) over nine
// domains. With star, every message flows spoke<->hub (domain 8, which
// starts idle); with hub, the system declares domain 8 its hub too.
func stressRun(workers int, star, hub bool) (dispatched uint64, now Cycle) {
	const domains, lookahead = 9, 4
	const hubDomain = domains - 1
	s := NewSystem(domains, lookahead)
	if hub {
		s.SetHub(hubDomain)
	}
	s.SetWorkers(workers)
	defer s.Stop()
	counts := make([]uint64, domains) // domain-owned
	var step func(d int, state uint64)
	step = func(d int, state uint64) {
		counts[d]++
		if counts[d] >= 4000 {
			return
		}
		r := NewRand(state)
		for i := 0; i < 1+int(state%2); i++ {
			dst := hubDomain
			switch {
			case !star:
				dst = r.Intn(domains)
			case d == hubDomain:
				dst = r.Intn(domains - 1)
			}
			delay := Cycle(lookahead + r.Intn(3))
			next := state*6364136223846793005 + uint64(i) + 1442695040888963407
			s.SendArg(d, dst, s.Engine(d).Now()+delay, func(v uint64) { step(dst, v) }, next)
		}
	}
	for d := 0; d < domains; d++ {
		if star && d == hubDomain {
			continue
		}
		d := d
		seed := uint64(3*d + 1)
		s.Engine(d).Schedule(Cycle(d%3), func() { step(d, seed) })
	}
	s.RunUntil(30000)
	return s.Dispatched(), s.Now()
}

// TestSystemStress runs the stress cascade at 8 workers, repeated, with
// dispatch totals pinned against inline execution. Any data race between
// domain execution, mailbox posting, and the barrier merge surfaces here.
func TestSystemStress(t *testing.T) {
	refDispatched, refNow := stressRun(1, false, false)
	if refDispatched < 1000 {
		t.Fatalf("stress cascade too small: %d events", refDispatched)
	}
	for i := 0; i < 3; i++ {
		if d, n := stressRun(8, false, false); d != refDispatched || n != refNow {
			t.Fatalf("workers=8 iteration %d: (dispatched, now) = (%d, %d), inline = (%d, %d)",
				i, d, n, refDispatched, refNow)
		}
	}
}

// TestSystemAdaptiveLoneDomainBoundedByOwnSends pins the own-send rule:
// a domain running alone under adaptive widening must stop before
// dispatching any event at or past its earliest outgoing delivery +
// lookahead — the first cycle a reply could arrive — so the reply is
// never leapfrogged.
func TestSystemAdaptiveLoneDomainBoundedByOwnSends(t *testing.T) {
	s := NewSystem(2, 10)
	var order []string
	// Domain 0 is the only active domain. At cycle 5 it pings domain 1
	// (delivery 15); domain 1 replies immediately (delivery 25). Domain 0
	// also has local work at 24 and 26: the 24 must run before the reply,
	// the 26 after it.
	s.Engine(0).Schedule(5, func() {
		s.Send(0, 1, 15, func() {
			s.Send(1, 0, 25, func() { order = append(order, "reply@25") })
		})
	})
	s.Engine(0).Schedule(24, func() { order = append(order, "local@24") })
	s.Engine(0).Schedule(26, func() { order = append(order, "local@26") })
	s.Run()
	want := []string{"local@24", "reply@25", "local@26"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("lone-domain adaptive order = %v, want %v", order, want)
	}
}
