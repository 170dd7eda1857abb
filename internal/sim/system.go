package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// System is a conservative, lookahead-bounded parallel discrete-event
// scheduler over a fixed set of synchronization domains, each with its own
// Engine. Cross-domain events go through Send/SendArg; the system executes
// epochs and delivers messages so that every domain dispatches in the
// fixed total order (cycle, source domain, source sequence).
//
// That order is carried by explicit event keys (see engine.go): every
// scheduling action by domain d — self-schedule or cross-domain send —
// takes the next key from d's counter, and engines dispatch by (cycle,
// key). Because the key is assigned at *send* time, not at insertion time,
// the dispatch order is a pure function of the per-domain event streams:
// it does not matter whether a message reaches the destination heap
// directly (fused same-group insertion) or at an epoch barrier (mailbox
// flush), nor how wide each epoch was. Results are therefore
// byte-identical at any worker count.
//
// Two delivery paths exist, fastest first:
//
//   - Fused: src and dst belong to the same static worker group (see
//     SetWorkers; the hub domain is pinned with its first shard, its
//     hottest edge). The send inserts directly into dst's heap — no
//     buffering, no barrier work. Safe because one goroutine executes a
//     whole group, and conservatism guarantees the delivery lies past
//     dst's horizon for the running epoch.
//   - Mailbox: cross-group sends append to per-edge chunks and are
//     drained at the barrier straight into the destination heap — no
//     sorting or merging, the keys already encode the canonical order.
//
// Epoch widths are adaptive: the earliest domain may run past the
// `lookahead` horizon up to the second-earliest domain's lookahead bound,
// and a domain that is alone in having pending events runs until its own
// outgoing sends could first provoke a reply. These widening rules are
// conservative — no domain ever executes an event a not-yet-delivered
// message could precede. With a declared hub (SetHub), shard domains also
// run past the conservative horizon while the hub is quiet; that
// speculation relies on the model's star-topology promise, and a commit
// barrier panics if a late message lands inside an executed window (see
// validateSpec). A system with no hub runs the conservative rules alone.
//
// The contract components must follow:
//
//   - A domain's event callbacks touch only state owned by that domain.
//   - Cross-domain interaction happens only via Send/SendArg, with a
//     delivery time at least `lookahead` cycles after the sender's clock.
//   - Shared read-only state (configuration, compiled traces) is fair game.
//
// The epoch barrier provides the happens-before edge for ownership
// handoff: a struct pointer sent through a mailbox may be mutated by the
// receiving domain, as long as the sender stops touching it once sent.
// Fused delivery keeps the same guarantee degenerately: sender and
// receiver share a goroutine.
type System struct {
	lookahead Cycle
	engines   []*Engine

	// Fused-group state. group[d] is the static worker group owning
	// domain d; same-group cross-domain sends insert directly into the
	// destination engine, skipping the mailbox. Rebuilt by SetWorkers and
	// SetHub: the hub is pinned to group 0 together with the first
	// non-hub domain (its hottest edge), remaining domains round-robin.
	group   []int32
	nGroups int

	// Speculation state. hub is the declared star-topology center (-1:
	// none): every cross-domain message flows shard<->hub, which is what
	// makes hub-light widening safe. specOn marks the domains whose
	// horizon was raised past the conservative bound this epoch; their
	// traffic is forced through mailboxes so the commit barrier sees it.
	hub        int32
	specOn     []bool
	specAny    bool
	specEpochs uint64

	// Mailboxes are per-edge chunks: boxes[src*n+dst] is appended in src
	// execution order, and outDirty[src] lists the destinations src has
	// pending mail for (each recorded once, on the edge's empty->nonempty
	// transition). Each src row is written only by the goroutine executing
	// that domain's epoch, so the tracking is race-free.
	boxes    [][]msg
	outDirty [][]int32

	// minOut[src] is the earliest delivery cycle among src's sends in the
	// current epoch; the adaptively-widened domain bounds its own
	// execution at minOut+lookahead-1 (see runBounded).
	minOut []Cycle

	// The active set: domains with pending events, maintained
	// incrementally (delivery activates targets, the epoch loop retires
	// drained engines) so per-epoch work is O(active), not O(domains).
	active    []int32
	activePos []int32 // domain -> index in active, -1 if inactive

	// touched[g] collects domains whose engine went empty->nonempty via a
	// fused insert during the epoch. Group g's worker is the only writer,
	// so the lists are race-free; the coordinator drains them into the
	// active set at the barrier.
	touched [][]int32

	// Per-epoch schedule, written by the coordinator before dispatch.
	epochRun []int32 // domains executing this epoch
	epochHi  []Cycle // per-domain horizon (inclusive)
	bounded  int32   // domain running under the own-send bound, or -1

	workers int // requested worker goroutines; <2 means inline execution

	epochs uint64 // barriers executed; the overhead diagnostic

	pool pool
}

// Worker-pool lifecycle states. The pool starts lazily at the first
// parallel epoch; Stop shuts it down and pins the system to inline
// execution until SetWorkers re-arms it.
const (
	poolNew     = iota // no goroutines yet; first parallel epoch starts them
	poolRunning        // persistent workers live
	poolStopped        // shut down; epochs run inline until SetWorkers
)

// pool is the persistent epoch-worker machinery: one goroutine per
// group, each with its own run queue of domains, signaled once per
// epoch. The per-worker ready channels and the shared done channel carry
// the happens-before edges between the coordinator's schedule writes,
// the workers' engine execution, and the barrier merge.
type pool struct {
	state   int
	width   int // goroutines started (groups at start time)
	ready   []chan struct{}
	queues  [][]int32
	pending atomic.Int32
	done    chan struct{}
	wg      sync.WaitGroup
}

// msg is one buffered cross-domain event. key is the sender-assigned tie
// order (see engine.go); the destination heap inserts it verbatim.
type msg struct {
	when  Cycle
	key   uint64
	fn    func()
	argFn func(uint64)
	arg   uint64
}

// MinLookahead is the smallest lookahead worth parallelizing over: below
// it, epochs are so narrow that barrier overhead dominates, and callers
// should fall back to inline execution.
const MinLookahead = 4

const maxCycle = ^Cycle(0)

// NewSystem builds a system of n domains with the given lookahead. Declare
// a hub with SetHub to arm speculative hub-light epochs.
func NewSystem(n int, lookahead Cycle) *System {
	if n < 1 {
		panic(fmt.Sprintf("sim: system needs at least one domain, got %d", n))
	}
	if lookahead < 1 {
		panic(fmt.Sprintf("sim: lookahead %d < 1", lookahead))
	}
	s := &System{lookahead: lookahead, hub: -1, workers: 1, bounded: -1}
	s.engines = make([]*Engine, n)
	s.boxes = make([][]msg, n*n)
	s.outDirty = make([][]int32, n)
	s.minOut = make([]Cycle, n)
	s.activePos = make([]int32, n)
	s.epochHi = make([]Cycle, n)
	s.group = make([]int32, n)
	s.specOn = make([]bool, n)
	for i := range s.engines {
		s.engines[i] = NewEngine()
		s.engines[i].SetRank(i)
		s.activePos[i] = -1
	}
	s.setGroups()
	return s
}

// Engine returns domain i's engine. Components schedule their intra-domain
// events directly on it.
func (s *System) Engine(i int) *Engine { return s.engines[i] }

// Domains returns the number of domains.
func (s *System) Domains() int { return len(s.engines) }

// Lookahead returns the minimum cross-domain latency (the lower bound on
// epoch width; adaptive epochs may be wider).
func (s *System) Lookahead() Cycle { return s.lookahead }

// SetHub declares domain h the star-topology center: models promise every
// cross-domain message flows between h and a non-hub domain, never
// shard-to-shard. The declaration pins h into worker group 0 (with its
// first shard — the hottest edge) and arms hub-light speculative epochs,
// whose commit barrier panics if the model breaks the promise. Pass -1 to
// clear. Call before running; changing the hub while the worker pool is
// live is not supported.
func (s *System) SetHub(h int) {
	if s.pool.state == poolRunning {
		panic("sim: SetHub while the worker pool is running; Stop first")
	}
	if h >= len(s.engines) {
		panic(fmt.Sprintf("sim: hub domain %d out of range (%d domains)", h, len(s.engines)))
	}
	if h < 0 {
		h = -1
	}
	s.hub = int32(h)
	s.setGroups()
}

// Hub returns the declared hub domain, or -1.
func (s *System) Hub() int { return int(s.hub) }

// SpecEpochs returns the number of epochs in which at least one domain ran
// past its conservative horizon.
func (s *System) SpecEpochs() uint64 { return s.specEpochs }

// SetWorkers sets the number of goroutines that execute epochs. Values
// below 2 select inline execution on the caller's goroutine; results are
// identical either way. Callable before running and again after Stop —
// re-arming a stopped pool restarts it cleanly at the new width on the
// next parallel epoch. Changing workers while the pool is running is not
// supported; Stop first.
func (s *System) SetWorkers(n int) {
	if s.pool.state == poolRunning {
		panic("sim: SetWorkers while the worker pool is running; Stop first")
	}
	s.pool.state = poolNew
	if n < 1 {
		n = 1
	}
	if n > len(s.engines) {
		n = len(s.engines)
	}
	s.workers = n
	s.setGroups()
}

// Workers returns the effective worker count.
func (s *System) Workers() int { return s.workers }

// setGroups rebuilds the static domain->group partition: the hub (if any)
// is pinned to group 0, and the remaining domains round-robin across
// groups in index order — so the first non-hub domain shares group 0 with
// the hub, fusing the hub's hottest edge. With one group (workers <= 1)
// every send fuses and the sharded model degenerates to a single keyed
// heap, which is what erases the w1 tax.
func (s *System) setGroups() {
	ng := s.workers
	if ng > len(s.engines) {
		ng = len(s.engines)
	}
	if ng < 1 {
		ng = 1
	}
	s.nGroups = ng
	j := 0
	for d := range s.group {
		if int32(d) == s.hub {
			s.group[d] = 0
			continue
		}
		s.group[d] = int32(j % ng)
		j++
	}
	for len(s.touched) < ng {
		s.touched = append(s.touched, nil)
	}
	s.touched = s.touched[:ng]
}

// checkSend validates a cross-domain delivery time against the lookahead
// contract. Violations always indicate a modeling bug, so they panic.
func (s *System) checkSend(src int, when Cycle) {
	if min := s.engines[src].Now() + s.lookahead; when < min {
		panic(fmt.Sprintf("sim: send from domain %d at cycle %d delivers at %d, before lookahead horizon %d",
			src, s.engines[src].Now(), when, min))
	}
}

// post appends one message to the src->dst mailbox, maintaining the
// dirty-edge list.
func (s *System) post(src, dst int, m msg) {
	box := src*len(s.engines) + dst
	if len(s.boxes[box]) == 0 {
		s.outDirty[src] = append(s.outDirty[src], int32(dst))
	}
	s.boxes[box] = append(s.boxes[box], m)
}

// fusable reports whether a src->dst send may bypass the mailbox: same
// static group (one goroutine owns both engines), and neither end
// speculating — the commit barrier can only validate mailbox traffic, so
// a speculating domain's sends and receipts must stay in mailboxes.
func (s *System) fusable(src, dst int) bool {
	return s.group[src] == s.group[dst] &&
		!(s.specAny && (s.specOn[src] || s.specOn[dst]))
}

// insertFused places a send directly into the destination heap, recording
// the empty->nonempty transition on the owning group's touched list so the
// coordinator can activate dst at the barrier. Conservatism guarantees the
// delivery lies past dst's horizon for the running epoch, so dst — even if
// it already ran, or runs later on the same goroutine — cannot dispatch it
// early.
func (s *System) insertFused(src, dst int, m *msg) {
	e := s.engines[dst]
	if len(e.queue) == 0 {
		g := s.group[src]
		s.touched[g] = append(s.touched[g], int32(dst))
	}
	e.scheduleKeyed(m.when, m.key, m.fn, m.argFn, m.arg)
}

// Send schedules fn on domain dst at absolute cycle when. The delivery
// must respect the lookahead: when >= sender's now + lookahead.
func (s *System) Send(src, dst int, when Cycle, fn func()) {
	if src == dst {
		s.engines[src].Schedule(when, fn)
		return
	}
	s.checkSend(src, when)
	if when < s.minOut[src] {
		s.minOut[src] = when
	}
	m := msg{when: when, key: s.engines[src].nextKey(), fn: fn}
	if s.fusable(src, dst) {
		s.insertFused(src, dst, &m)
		return
	}
	s.post(src, dst, m)
}

// SendArg schedules argFn(arg) on domain dst at absolute cycle when; the
// allocation-free counterpart of Send for payload-carrying events.
func (s *System) SendArg(src, dst int, when Cycle, argFn func(uint64), arg uint64) {
	if src == dst {
		s.engines[src].ScheduleArg(when, argFn, arg)
		return
	}
	s.checkSend(src, when)
	if when < s.minOut[src] {
		s.minOut[src] = when
	}
	m := msg{when: when, key: s.engines[src].nextKey(), argFn: argFn, arg: arg}
	if s.fusable(src, dst) {
		s.insertFused(src, dst, &m)
		return
	}
	s.post(src, dst, m)
}

// activate adds domain d to the active set (no-op if present).
func (s *System) activate(d int32) {
	if s.activePos[d] < 0 {
		s.activePos[d] = int32(len(s.active))
		s.active = append(s.active, d)
	}
}

// deactivate removes domain d from the active set by swap-delete.
func (s *System) deactivate(d int32) {
	i := s.activePos[d]
	if i < 0 {
		return
	}
	last := s.active[len(s.active)-1]
	s.active[i] = last
	s.activePos[last] = i
	s.active = s.active[:len(s.active)-1]
	s.activePos[d] = -1
}

// rebuildActive rescans every engine. Called once per RunUntil entry to
// pick up events scheduled directly on engines while the system was
// quiescent (construction-time wiring, test setup between runs); inside
// the epoch loop the set is maintained incrementally.
func (s *System) rebuildActive() {
	s.active = s.active[:0]
	for i, e := range s.engines {
		if _, ok := e.NextTime(); ok {
			s.activePos[i] = int32(len(s.active))
			s.active = append(s.active, int32(i))
		} else {
			s.activePos[i] = -1
		}
	}
}

// satHorizon returns min(base+lookahead-1, limit), saturating on
// overflow.
func (s *System) satHorizon(base, limit Cycle) Cycle {
	hi := base + s.lookahead - 1
	if hi < base { // overflow
		hi = maxCycle
	}
	if hi > limit {
		hi = limit
	}
	return hi
}

// RunUntil executes epochs until every queue is empty or the next event
// lies past limit. Events scheduled exactly at the limit are dispatched.
// It reports whether all queues were drained.
func (s *System) RunUntil(limit Cycle) bool {
	// Deliver sends made while the system was quiescent: epochs only
	// flush their own sends, and the schedule below must see these as
	// engine events to pick the right first epoch. Stale touched entries
	// from quiescent fused sends are superseded by the rescan.
	s.flush()
	s.rebuildActive()
	for g := range s.touched {
		s.touched[g] = s.touched[g][:0]
	}
	for len(s.active) > 0 {
		// min1/min2: the two earliest next-event times across active
		// domains; arg is min1's domain. O(active) — inactive domains
		// cannot act (nothing queued, and mail only lands at barriers or
		// via fused inserts that activate them for the next epoch).
		min1, min2 := maxCycle, maxCycle
		arg := int32(-1)
		for _, d := range s.active {
			t, _ := s.engines[d].NextTime()
			if t < min1 {
				min1, min2, arg = t, min1, d
			} else if t < min2 {
				min2 = t
			}
		}
		if min1 > limit {
			return false
		}
		// Conservative horizons. Every cross-domain send from a domain
		// whose first event is at t delivers at or after t+lookahead, so:
		//
		//   - any domain may run to min1+lookahead-1 (the classic epoch);
		//   - the earliest domain may run to min2+lookahead-1 — messages
		//     to it can only come from domains whose sends deliver at or
		//     after min2+lookahead;
		//   - when no other domain has anything queued (min2 = ∞), the
		//     earliest domain is bounded only by its own sends: a message
		//     it delivers at d can provoke a reply no earlier than
		//     d+lookahead, so it stops before dispatching any event at or
		//     past minOut+lookahead (runBounded).
		//
		// Deliveries therefore always land strictly after their
		// destination's horizon, at every width the rules admit.
		hiDefault := s.satHorizon(min1, limit)
		hiArg := limit
		if min2 != maxCycle {
			hiArg = s.satHorizon(min2, limit)
		}
		s.bounded = arg
		// Hub-light speculative horizon. With a declared star topology
		// (every message flows shard<->hub), the hub cannot dispatch
		// anything before H0 = min(its next queued event, min1+lookahead
		// — the earliest any shard send could reach it), so no hub send
		// can land before H0+lookahead and every shard may run to
		// starHi = H0+lookahead-1. Shard-to-shard traffic would break
		// the argument — that is exactly what the commit barrier
		// validates (validateSpec).
		starHi := Cycle(0)
		if s.hub >= 0 {
			hubNext := maxCycle
			if t, ok := s.engines[s.hub].NextTime(); ok {
				hubNext = t
			}
			h0 := min1 + s.lookahead
			if h0 < min1 { // overflow
				h0 = maxCycle
			}
			if hubNext < h0 {
				h0 = hubNext
			}
			starHi = s.satHorizon(h0, limit)
		}
		s.epochRun = s.epochRun[:0]
		for _, d := range s.active {
			hi := hiDefault
			if d == arg {
				hi = hiArg
			}
			spec := false
			if d != s.hub && starHi > hi {
				hi = starHi
				spec = true
			}
			if t, _ := s.engines[d].NextTime(); t <= hi {
				s.epochHi[d] = hi
				s.epochRun = append(s.epochRun, d)
				if spec {
					s.specOn[d] = true
					s.specAny = true
				}
			}
		}
		s.epochs++
		if s.workers > 1 && len(s.epochRun) > 1 && s.pool.state != poolStopped {
			s.runEpochParallel()
		} else {
			for _, d := range s.epochRun {
				s.runDomain(d)
			}
		}
		for _, d := range s.epochRun {
			if s.engines[d].Pending() == 0 {
				s.deactivate(d)
			}
		}
		for g := range s.touched {
			for _, d := range s.touched[g] {
				s.activate(d)
			}
			s.touched[g] = s.touched[g][:0]
		}
		if s.specAny {
			s.specEpochs++
			s.validateSpec()
			for _, d := range s.epochRun {
				s.specOn[d] = false
			}
			s.specAny = false
		}
		s.flush()
	}
	return true
}

// runDomain executes one domain's share of the current epoch.
func (s *System) runDomain(d int32) {
	if d == s.bounded {
		s.runBounded(d, s.epochHi[d])
	} else {
		s.engines[d].RunUntil(s.epochHi[d])
	}
}

// runBounded runs domain d to hi under the own-send bound: once the
// domain has sent a message delivering at minOut, it must not dispatch
// any event at or past minOut+lookahead — the earliest cycle a reply
// provoked by that message could arrive.
func (s *System) runBounded(d int32, hi Cycle) {
	e := s.engines[int(d)]
	s.minOut[d] = maxCycle
	for {
		t, ok := e.NextTime()
		if !ok || t > hi {
			return
		}
		if mo := s.minOut[d]; mo != maxCycle {
			bnd := mo + s.lookahead
			if bnd < mo { // overflow
				bnd = maxCycle
			}
			if t >= bnd {
				return
			}
		}
		e.Step()
	}
}

// Run executes epochs until every queue is empty and returns the latest
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

// Epochs returns the number of epoch barriers executed — the per-run
// overhead diagnostic adaptive widening and speculation exist to shrink.
func (s *System) Epochs() uint64 { return s.epochs }

// Dispatched returns the total events dispatched across domains.
func (s *System) Dispatched() uint64 {
	var n uint64
	for _, e := range s.engines {
		n += e.Dispatched()
	}
	return n
}

// runEpochParallel executes the epoch's domains on the persistent worker
// pool. Domains are partitioned by their *static* group — worker g owns
// exactly group g's domains every epoch — so fused same-group inserts
// always happen on the goroutine that owns both engines. Only workers
// with a non-empty queue are signaled; if a single group holds the whole
// epoch, it runs inline on the coordinator. The ready-channel handoff and
// the done signal give the happens-before edges that make the barrier
// race-free.
func (s *System) runEpochParallel() {
	p := &s.pool
	if p.state == poolNew {
		p.state = poolRunning
		p.width = s.nGroups
		p.done = make(chan struct{})
		p.ready = make([]chan struct{}, p.width)
		p.queues = make([][]int32, p.width)
		for w := 0; w < p.width; w++ {
			w := w
			p.ready[w] = make(chan struct{}, 1)
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				for range p.ready[w] {
					for _, d := range p.queues[w] {
						s.runDomain(d)
					}
					if p.pending.Add(-1) == 0 {
						p.done <- struct{}{}
					}
				}
			}()
		}
	}
	for w := 0; w < p.width; w++ {
		p.queues[w] = p.queues[w][:0]
	}
	for _, d := range s.epochRun {
		g := s.group[d]
		p.queues[g] = append(p.queues[g], d)
	}
	busy := 0
	last := -1
	for w := 0; w < p.width; w++ {
		if len(p.queues[w]) > 0 {
			busy++
			last = w
		}
	}
	if busy == 1 {
		for _, d := range p.queues[last] {
			s.runDomain(d)
		}
		return
	}
	p.pending.Store(int32(busy))
	for w := 0; w < p.width; w++ {
		if len(p.queues[w]) > 0 {
			p.ready[w] <- struct{}{}
		}
	}
	<-p.done
}

// Stop shuts the worker pool down and joins its goroutines. After Stop
// the system keeps working — subsequent epochs simply execute inline —
// and SetWorkers re-arms parallel execution with a fresh pool. Safe to
// call multiple times, on an inline system, and on a system that never
// went parallel.
func (s *System) Stop() {
	if s.pool.state == poolRunning {
		for _, c := range s.pool.ready {
			close(c)
		}
		s.pool.wg.Wait()
	}
	s.pool.state = poolStopped
}

// flush drains every non-empty mailbox edge straight into its destination
// engine. No sorting, no merging: messages carry sender-assigned keys, so
// the destination heap — which orders by (cycle, key) — reproduces the
// canonical (cycle, source domain, source sequence) total order no matter
// what order the chunks arrive in. A barrier costs O(messages·log(queue) +
// dirty edges). Chunks are truncated in place, so their backing arrays are
// reused across epochs and the steady state allocates nothing.
func (s *System) flush() {
	n := len(s.engines)
	for src := 0; src < n; src++ {
		dl := s.outDirty[src]
		if len(dl) == 0 {
			continue
		}
		for _, dst := range dl {
			bi := src*n + int(dst)
			box := s.boxes[bi]
			e := s.engines[dst]
			for i := range box {
				m := &box[i]
				e.scheduleKeyed(m.when, m.key, m.fn, m.argFn, m.arg)
				*m = msg{}
			}
			s.boxes[bi] = box[:0]
			s.activate(dst)
		}
		s.outDirty[src] = dl[:0]
	}
}

// validateSpec is the speculation commit barrier: before mail is
// delivered, every buffered message is checked against its destination's
// dispatch cursor (now, lastKey). A message that would have dispatched
// inside an already-executed window means the destination ran ahead on
// the promise that no such message existed — the model broke the declared
// star topology — so it panics.
func (s *System) validateSpec() {
	n := len(s.engines)
	for src := 0; src < n; src++ {
		for _, dst := range s.outDirty[src] {
			e := s.engines[dst]
			box := s.boxes[src*n+int(dst)]
			for i := range box {
				if m := &box[i]; !e.deliverable(m.when, m.key) {
					panic(fmt.Sprintf(
						"sim: speculation violation: message from domain %d delivers at cycle %d inside domain %d's executed window (now %d); the model sent shard-to-shard traffic despite the declared hub %d — declare the topology honestly or clear the hub with SetHub(-1)",
						src, m.when, dst, e.Now(), s.hub))
				}
			}
		}
	}
}
