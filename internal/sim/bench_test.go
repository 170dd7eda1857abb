package sim

import "testing"

func BenchmarkEngineScheduleDispatch(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(uint64(i%64), func() {})
		e.Step()
	}
}

func BenchmarkEngineDeepQueue(b *testing.B) {
	// A stress test of the far heap: a standing queue of 10k events,
	// each new one 10k cycles ahead, so past the first ring's worth
	// every event goes through the 4-ary heap. A simulation's queue is
	// far shallower and nearer (BenchmarkEngineTrafficMix).
	e := NewEngine()
	for i := 0; i < 10_000; i++ {
		e.After(uint64(i), func() {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(10_000+uint64(i), func() {})
		e.Step()
	}
}

// trafficDelays draws n delays (n a power of two) from the mix a
// paper-scale simulation schedules (DESIGN.md §11): about 30% 4–7
// cycles ahead, 69% 8–31 and 1% 2^10–2^19.
func trafficDelays(n int) []Cycle {
	r := NewRand(1)
	d := make([]Cycle, n)
	for i := range d {
		switch p := r.Intn(100); {
		case p < 30:
			d[i] = 4 + Cycle(r.Intn(4))
		case p < 99:
			d[i] = 8 + Cycle(r.Intn(24))
		default:
			d[i] = 1<<10 + Cycle(r.Intn(1<<19-1<<10))
		}
	}
	return d
}

// trafficHop is the delay at or past which an actor hops between its
// home shard and the hub: the default configuration's shortest
// shard<->hub latency.
const trafficHop = 20

// trafficActors keeps 32 actors scheduled on sys: each reschedules itself
// on dispatch with the next near delay of the mix. A far delay becomes a
// one-shot timer on the actor's current domain instead, so far events
// build up in the heap without draining the standing queue of 32. An
// actor whose delay is at least trafficHop hops between its home shard
// and the hub (the last domain); a shorter one stays on its domain. Every
// event is scheduled from the engine of the domain it runs on. With one
// domain, every delay stays put.
func trafficActors(sys *System) {
	delays := trafficDelays(1 << 12)
	hub := sys.Domains() - 1
	i := 0
	timer := func(uint64) {}
	var act func(a uint64) // a = home shard << 1 | at hub
	act = func(a uint64) {
		at := int(a >> 1)
		if a&1 != 0 {
			at = hub
		}
		e := sys.Engine(at)
		d := delays[i&(len(delays)-1)]
		i++
		for ; d >= 1<<10; i++ {
			e.ScheduleArg(e.Now()+d, timer, 0)
			d = delays[i&(len(delays)-1)]
		}
		if hub > 0 && d >= trafficHop {
			a ^= 1
		}
		e.ScheduleArg(e.Now()+d, act, a)
	}
	for a := 0; a < 32; a++ {
		act(uint64(a%max(hub, 1)) << 1)
	}
}

// BenchmarkEngineTrafficMix dispatches one engine's events under the
// measured traffic: a standing queue of 32, delays from trafficDelays.
func BenchmarkEngineTrafficMix(b *testing.B) {
	sys := NewSystem(1)
	trafficActors(sys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Step()
	}
}

// BenchmarkSystemTrafficMix is the multi-domain variant: 5 domains (4
// shards and the hub) on one queue, where about a third of the actors'
// reschedules hop to another domain. An op is one dispatched event.
func BenchmarkSystemTrafficMix(b *testing.B) {
	sys := NewSystem(5)
	trafficActors(sys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Step()
	}
}

func BenchmarkRandUint64(b *testing.B) {
	r := NewRand(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}
