package sim

import (
	"fmt"
	"strings"
	"testing"
)

// synthStarRun drives a synthetic star-topology cascade — every
// cross-domain message flows spoke<->hub, the contract the GPU model
// honors — and returns a full dispatch trace plus the speculative epoch
// count. With hub false no hub is declared: the conservative reference.
// Same construction discipline as synthRun: domain-owned logs,
// deterministic PRNG fan-out, a per-domain step cap.
func synthStarRun(workers int, hub bool) (trace string, specEpochs uint64) {
	const domains, lookahead = 6, 7
	const hubDomain = domains - 1
	const maxStepsPerDomain = 1200
	s := NewSystem(domains, lookahead)
	if hub {
		s.SetHub(hubDomain)
	}
	s.SetWorkers(workers)
	defer s.Stop()
	logs := make([][]string, domains) // domain-owned: no cross-domain writes
	var step func(d int, state uint64)
	step = func(d int, state uint64) {
		if len(logs[d]) >= maxStepsPerDomain {
			return // saturated: let the remaining chains die out
		}
		logs[d] = append(logs[d], fmt.Sprintf("d%d@%d:%x", d, s.Engine(d).Now(), state))
		if state%11 == 0 {
			return // chain dies out
		}
		r := NewRand(state)
		for i := 0; i < 1+int(state%3); i++ {
			dst := hubDomain
			if d == hubDomain {
				dst = r.Intn(domains - 1)
			}
			delay := Cycle(lookahead + r.Intn(20))
			next := state*6364136223846793005 + uint64(i) + 1442695040888963407
			s.SendArg(d, dst, s.Engine(d).Now()+delay, func(v uint64) { step(dst, v) }, next)
		}
	}
	for d := 0; d < domains-1; d++ {
		d := d
		seed := uint64(2*d + 1)
		s.Engine(d).Schedule(Cycle(d), func() { step(d, seed) })
	}
	s.RunUntil(5000)
	var b strings.Builder
	fmt.Fprintf(&b, "now=%d dispatched=%d\n", s.Now(), s.Dispatched())
	for d := 0; d < domains; d++ {
		for _, l := range logs[d] {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	return b.String(), s.SpecEpochs()
}

// TestSystemStarSpeculationByteIdentity pins the speculation contract on
// a star-honoring workload: with the hub declared, hub-light epochs must
// engage (SpecEpochs > 0), must never trip the commit barrier (a
// violation panics — the conservatism proof in RunUntil says none can
// occur when all traffic flows spoke<->hub), and must leave the dispatch
// trace byte-identical to the conservative no-hub schedule at every
// worker count.
func TestSystemStarSpeculationByteIdentity(t *testing.T) {
	ref, _ := synthStarRun(1, false)
	if len(ref) < 100 {
		t.Fatalf("synthetic star cascade too small to be meaningful:\n%s", ref)
	}
	sawSpec := false
	for _, hub := range []bool{false, true} {
		for _, w := range []int{1, 2, 4, 8} {
			got, se := synthStarRun(w, hub)
			if got != ref {
				t.Errorf("hub=%v workers=%d diverged from conservative reference\nreference:\n%.300s\ngot:\n%.300s",
					hub, w, ref, got)
			}
			if !hub && se != 0 {
				t.Errorf("workers=%d: %d speculative epochs with no hub declared", w, se)
			}
			if hub && se > 0 {
				sawSpec = true
			}
		}
	}
	if !sawSpec {
		t.Error("speculative epochs never engaged on the star workload")
	}
}

// violationRun sets up the adversarial case: domain 1 burns a dense local
// chain (speculation fuel — with a hub declared it runs deep past the
// conservative horizon while the hub is silent), and domain 0 fires one
// shard-to-shard send landing at cycle 10, inside the window domain 1
// will have speculated through. It returns domain 1's log.
func violationRun(hub bool, workers int) string {
	const lookahead = 10
	s := NewSystem(3, lookahead)
	if hub {
		s.SetHub(2)
	}
	s.SetWorkers(workers)
	defer s.Stop()
	var log []string // domain 1's
	var chain func(c Cycle)
	chain = func(c Cycle) {
		log = append(log, fmt.Sprintf("chain@%d", s.Engine(1).Now()))
		if c < 30 {
			s.Engine(1).Schedule(c+1, func() { chain(c + 1) })
		}
	}
	s.Engine(1).Schedule(0, func() { chain(0) })
	s.Engine(0).Schedule(0, func() {
		s.Send(0, 1, lookahead, func() {
			log = append(log, fmt.Sprintf("recv@%d", s.Engine(1).Now()))
		})
	})
	s.RunUntil(100)
	return strings.Join(log, "\n")
}

// TestSystemSpeculationViolationPanics: shard-to-shard traffic breaks the
// declared star topology, and speculation has no rollback — the system
// must fail loudly, not deliver a message into an already-executed
// window. The same model with no hub declared runs conservatively and
// interleaves the late message at its canonical position (cycle 10,
// before domain 1's own same-cycle event: lower source rank).
func TestSystemSpeculationViolationPanics(t *testing.T) {
	for _, w := range []int{1, 2} {
		if got := violationRun(false, w); !strings.Contains(got, "chain@9\nrecv@10\nchain@10") {
			t.Errorf("workers=%d: conservative schedule lost the canonical interleaving:\n%s", w, got)
		}
		func() {
			defer func() {
				if r := recover(); !strings.Contains(fmt.Sprint(r), "speculation violation") {
					t.Errorf("workers=%d: want a speculation-violation panic, got %v", w, r)
				}
			}()
			violationRun(true, w)
		}()
	}
}

// TestSystemSpeculationStress is the CI -race workout for the speculative
// path: the stress cascade on a star, with the commit barrier validating
// every speculative epoch, at 2 and 8 workers — dispatch totals pinned
// against conservative inline execution (no hub declared). Any race
// between speculation bookkeeping, fused inserts, and the commit barrier
// surfaces here.
func TestSystemSpeculationStress(t *testing.T) {
	refDispatched, refNow := stressRun(1, true, false)
	if refDispatched == 0 {
		t.Fatal("reference run dispatched nothing")
	}
	for _, w := range []int{2, 8} {
		if d, now := stressRun(w, true, true); d != refDispatched || now != refNow {
			t.Errorf("workers=%d speculative run diverged: dispatched=%d now=%d, want %d/%d",
				w, d, now, refDispatched, refNow)
		}
	}
}
