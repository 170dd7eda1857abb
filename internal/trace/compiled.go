package trace

// Compiled workload representation: every warp of every kernel is
// emitted, once, through a Builder into shared backing arrays (a
// struct-of-arrays per kernel plus one address pool), and replay becomes
// a cursor over those arrays. Building a Compiled pays the full host-side algorithm replay a
// single time; afterwards any number of simulations — including parallel
// sweep jobs sharing the same immutable Compiled — create streams with one
// small allocation (the cursor) and execute Next/PeekAhead with none.
//
// The layout mirrors trace-driven GPU simulators (MacSim's trace files,
// MGPUSim's instruction streams): capture is separated from replay so the
// expensive part amortizes across a sweep. Compiled is the in-process
// tier; its UVMCMP1 artifact (artifact.go) is the on-disk tier and the
// repository's one trace file format, so a uvmsim trace file and an
// artifact-store entry hold the same bytes.

import (
	"fmt"
	"sync"

	"uvmsim/internal/layout"
)

// Compiled is an immutable, flattened workload. It is safe for concurrent
// use: all mutable replay state lives in the cursors it hands out.
type Compiled struct {
	Name      string
	Irregular bool
	// WarpSize is the warp width the streams were captured at. Replay
	// under another configured warp size mispartitions threads: a
	// narrower one asks for warps outside the compiled grid and panics,
	// but a wider one silently replays a subset. Code replaying a Compiled
	// it did not compile, such as a trace file, must check WarpSize first.
	WarpSize int

	space   *layout.Space
	kernels []CompiledKernel

	viewOnce sync.Once
	view     *Workload
}

// CompiledKernel is one kernel's flattened streams. Per-access metadata is
// struct-of-arrays; lane addresses for all accesses share one pool, so an
// Access handed out by a cursor aliases pool memory (callers must not
// mutate or append to Access.Addrs — the simulator only reads them).
type CompiledKernel struct {
	Name            string
	Blocks          int
	ThreadsPerBlock int
	RegsPerThread   int

	warpsPerBlock int
	// warpOff[w] .. warpOff[w+1] bound warp w's accesses (w is the
	// flattened block*warpsPerBlock+warp index); len = nWarps+1.
	warpOff []int32
	// Per-access arrays, indexed by the access's global position.
	compute []uint64
	store   []bool
	// laneOff[i] .. laneOff[i+1] bound access i's lane addresses within
	// addrs; len = nAccesses+1.
	laneOff []int32
	// addrs is the single shared address pool.
	addrs []uint64
}

// Compile flattens w by running every kernel's Emit for every (block,
// warp) at the given warp size, in grid order, into one Builder. Emit
// must be pure (the usual contract); w itself is not modified and remains
// usable. A kernel without Emit is an error.
func Compile(w *Workload, warpSize int) (*Compiled, error) {
	if warpSize <= 0 {
		return nil, fmt.Errorf("trace: Compile warp size %d", warpSize)
	}
	c := &Compiled{
		Name:      w.Name,
		Irregular: w.Irregular,
		WarpSize:  warpSize,
		space:     w.Space,
		kernels:   make([]CompiledKernel, 0, len(w.Kernels)),
	}
	var b Builder
	for _, k := range w.Kernels {
		if k.Emit == nil {
			return nil, fmt.Errorf("trace: kernel %q has no Emit to compile", k.Name)
		}
		warps := k.WarpsPerBlock(warpSize)
		b.begin(k, k.Blocks, warps)
		for blk := 0; blk < k.Blocks; blk++ {
			for wp := 0; wp < warps; wp++ {
				k.Emit(&b, blk, wp)
				b.endWarp()
				if b.err != nil {
					return nil, b.err
				}
			}
		}
		c.kernels = append(c.kernels, b.k)
	}
	return c, nil
}

const maxInt32 = 1<<31 - 1

// Accesses returns the total flattened instruction count.
func (c *Compiled) Accesses() int {
	n := 0
	for i := range c.kernels {
		n += len(c.kernels[i].compute)
	}
	return n
}

// AddrWords returns the total lane-address pool size, in uint64 words.
func (c *Compiled) AddrWords() int {
	n := 0
	for i := range c.kernels {
		n += len(c.kernels[i].addrs)
	}
	return n
}

// Kernels returns the compiled kernels (for inspection; replay goes
// through Workload).
func (c *Compiled) Kernels() []CompiledKernel { return c.kernels }

// Workload returns the replayable view of c: a Workload whose streams are
// cursors over the shared arrays. The view is built once and memoized in
// c, so every caller shares one *Workload, and it lives exactly as long
// as c does. It can be passed anywhere a live workload can (core.Run, the
// working-set analyzer); it is immutable and safe to share across
// concurrent simulations.
func (c *Compiled) Workload() *Workload {
	c.viewOnce.Do(func() {
		w := &Workload{
			Name:      c.Name,
			Space:     c.space,
			Irregular: c.Irregular,
			Kernels:   make([]Kernel, len(c.kernels)),
		}
		for i := range c.kernels {
			ck := &c.kernels[i]
			w.Kernels[i] = Kernel{
				Name:            ck.Name,
				Blocks:          ck.Blocks,
				ThreadsPerBlock: ck.ThreadsPerBlock,
				RegsPerThread:   ck.RegsPerThread,
				NewWarpStream: func(block, warp int) WarpStream {
					return ck.Stream(block, warp)
				},
			}
		}
		c.view = w
	})
	return c.view
}

// Stream returns a fresh cursor over the given warp's accesses. The only
// allocation replay ever performs is this cursor; Next and PeekAhead are
// pure index arithmetic over the shared arrays.
func (k *CompiledKernel) Stream(block, warp int) *Cursor {
	if block < 0 || block >= k.Blocks || warp < 0 || warp >= k.warpsPerBlock {
		panic(fmt.Sprintf("trace: kernel %q stream (block %d, warp %d) outside compiled grid %dx%d — was the workload compiled at a different warp size?",
			k.Name, block, warp, k.Blocks, k.warpsPerBlock))
	}
	i := block*k.warpsPerBlock + warp
	return &Cursor{k: k, pos: k.warpOff[i], end: k.warpOff[i+1]}
}

// WarpsPerBlock returns the warp count per block the kernel was compiled
// at.
func (k *CompiledKernel) WarpsPerBlock() int { return k.warpsPerBlock }

// Cursor replays one warp's accesses from a CompiledKernel. It implements
// WarpStream.
type Cursor struct {
	k        *CompiledKernel
	pos, end int32
}

// at materializes the i-th access. The Addrs subslice aliases the kernel's
// shared pool with a full slice expression, so an accidental append by a
// caller copies instead of clobbering the next access's lanes.
func (c *Cursor) at(i int32) Access {
	k := c.k
	lo, hi := k.laneOff[i], k.laneOff[i+1]
	return Access{
		ComputeCycles: k.compute[i],
		Addrs:         k.addrs[lo:hi:hi],
		Store:         k.store[i],
	}
}

// Next implements WarpStream.
func (c *Cursor) Next() (Access, bool) {
	if c.pos >= c.end {
		return Access{}, false
	}
	a := c.at(c.pos)
	c.pos++
	return a, true
}

// PeekAhead implements WarpStream: upcoming instruction i (0 = what Next
// returns next) without consuming it.
func (c *Cursor) PeekAhead(i int) (Access, bool) {
	if i < 0 || c.pos+int32(i) >= c.end {
		return Access{}, false
	}
	return c.at(c.pos + int32(i)), true
}

// Remaining returns how many accesses the cursor has left.
func (c *Cursor) Remaining() int { return int(c.end - c.pos) }
