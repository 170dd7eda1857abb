package gpu

import "uvmsim/internal/trace"

// WarpState tracks where a warp is in its lifecycle.
type WarpState int

const (
	// WarpReady can issue its next instruction (or replay a faulted one)
	// as soon as its block is active and its SM enabled.
	WarpReady WarpState = iota
	// WarpBusy has an in-flight compute delay or data access; a completion
	// event is scheduled.
	WarpBusy
	// WarpFaultStalled waits for one or more page migrations.
	WarpFaultStalled
	// WarpDone has drained its instruction stream.
	WarpDone
)

// Warp is the primary execution unit: a bundle of scalar threads advancing
// through one instruction stream in SIMT lockstep.
type Warp struct {
	id     int
	block  *Block
	stream trace.Cursor
	state  WarpState

	// replayAcc is the memory instruction to re-issue after a fault
	// resolves (GPU fault handling replays the access).
	replayAcc  trace.Access
	hasReplay  bool
	pendingPgs []uint64 // faulted pages still outstanding (few; linear scan)

	// pendingAcc carries a memory instruction across its compute delay to
	// issueMemFn. Valid only while the warp is Busy on that instruction.
	pendingAcc trace.Access

	// resumeFn (mark ready and reissue) and issueMemFn (issue pendingAcc
	// to the memory system) are bound once at warp creation; the per-
	// instruction hot path schedules them instead of allocating closures.
	resumeFn   func()
	issueMemFn func()
}

// clearPending removes page from the warp's outstanding fault set.
func (w *Warp) clearPending(page uint64) {
	for i, p := range w.pendingPgs {
		if p == page {
			last := len(w.pendingPgs) - 1
			w.pendingPgs[i] = w.pendingPgs[last]
			w.pendingPgs = w.pendingPgs[:last]
			return
		}
	}
}

// Block is a thread block resident on an SM. A block is either active
// (its warps may issue) or inactive (context saved; warps only collect
// wakeups). The extra inactive blocks are what thread oversubscription
// adds.
type Block struct {
	idx     int // global block index within the kernel grid
	sm      *SM
	warps   []*Warp
	active  bool
	started bool // has ever been activated (its context holds progress)

	doneWarps    int
	faultStalled int
}

// fullyFaultStalled reports whether every live warp waits on a page fault:
// the thread-oversubscription trigger for a context switch.
func (b *Block) fullyFaultStalled() bool {
	return b.doneWarps < len(b.warps) && b.faultStalled+b.doneWarps == len(b.warps)
}

// fullyStalled reports whether no warp is ready (all busy, fault-stalled,
// or done): the Figure 5 "traditional GPU" switch trigger, which swaps on
// any long-latency stall.
func (b *Block) fullyStalled() bool {
	if b.doneWarps == len(b.warps) {
		return false
	}
	for _, w := range b.warps {
		if w.state == WarpReady {
			return false
		}
	}
	return true
}

// hasReadyWarp reports whether some warp could issue if the block were
// activated.
func (b *Block) hasReadyWarp() bool {
	for _, w := range b.warps {
		if w.state == WarpReady {
			return true
		}
	}
	return false
}

// finished reports whether every warp has drained its stream.
func (b *Block) finished() bool { return b.doneWarps == len(b.warps) }
