package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
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

// TestSystemCanonicalMergeOrder pins the cross-domain delivery order:
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
// final window: RunUntil's limit clamps it below next+lookahead-1, several
// source domains land sends exactly at the receiver's lookahead boundary,
// and the canonical (cycle, src, seq) order must hold — including delivery
// of boundary sends that a sloppy clamp would strand past the limit.
func TestSystemClampedFinalEpochMergeOrder(t *testing.T) {
	const lookahead = 10
	s := NewSystem(5, lookahead)
	var order []string
	deliver := func(tag string) func() {
		return func() { order = append(order, tag) }
	}
	// Sources 1-4 all become runnable at cycle 90 and send to domain 0
	// with deliveries at exactly now+lookahead = 100 (the boundary) and
	// beyond; the limit 100 clamps the final window.
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
		t.Fatal("drained despite deliveries at 101")
	}
	want := []string{"d0@95",
		"d1@100", "d2@100", "d3@100", "d4@100"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("clamped-window order = %v, want %v", order, want)
	}
}

// synthRun drives a synthetic multi-domain cascade and returns a full
// dispatch trace. Each domain's callback mutates only domain-owned state;
// cross-domain sends use a deterministic PRNG for fan-out and delays.
// The cascade branches supercritically (just under two expected children
// per event), so a per-domain step cap bounds it; the cap reads only the
// domain's own log length, whose growth follows the canonical dispatch
// order.
func synthRun() string {
	const domains, lookahead = 5, 7
	const maxStepsPerDomain = 1500
	s := NewSystem(domains, lookahead)
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

// synthDigest pins a SHA-256 of synthRun's dispatch trace. The trace is
// a pure function of the per-domain event streams and the (cycle, source
// domain, send order) keys, so a change to how the system schedules its
// domains must leave it unchanged; a change that moves it reorders events.
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

// TestSystemLoneDomainBoundedByOwnSends pins the reply rule: a domain
// that is the only one with queued events must not run past the first
// cycle a reply to its own send could arrive (its earliest outgoing
// delivery + lookahead), so the reply is never leapfrogged.
func TestSystemLoneDomainBoundedByOwnSends(t *testing.T) {
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
		t.Fatalf("lone-domain order = %v, want %v", order, want)
	}
}
