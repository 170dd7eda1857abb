package trace

// Compiled workload representation: every warp of every kernel is
// emitted, once, through a Builder, and replay becomes a cursor over the
// result. A kernel is its flat warp offsets plus segments: runs of whole
// warps, each a struct-of-arrays with its own slice of the address pool,
// cut at a warp boundary once a segment reaches segmentBytes. Capture
// therefore writes every kernel into its final storage without growing or
// copying a kernel-sized array, and a cursor, which replays one warp,
// finds that warp's segment once and then indexes it directly. Building a
// Compiled pays the full host-side algorithm replay a single time;
// afterwards any number of simulations — including parallel sweep jobs
// sharing the same immutable Compiled — create streams with one small
// allocation (the cursor) and execute Next/PeekAhead with none.
//
// The layout mirrors trace-driven GPU simulators (MacSim's trace files,
// MGPUSim's instruction streams): capture is separated from replay so the
// expensive part amortizes across a sweep. Compiled is the in-process
// tier; its UVMCMP1 artifact (artifact.go) is the on-disk tier and the
// repository's one trace file format, so a uvmsim trace file and an
// artifact-store entry hold the same bytes. Every offset is kernel-global,
// so a kernel's segments laid back to back are exactly the flat arrays a
// file holds, and a loaded kernel is one segment.

import (
	"fmt"
	"sort"
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

// CompiledKernel is one kernel's flattened streams: its warp offsets
// plus its segments. Per-access metadata is struct-of-arrays, and lane
// addresses share one pool per segment, so an Access handed out by a
// cursor aliases pool memory (callers must not mutate or append to
// Access.Addrs — the simulator only reads them).
type CompiledKernel struct {
	Name            string
	Blocks          int
	ThreadsPerBlock int
	RegsPerThread   int

	warpsPerBlock int
	// warpOff[w] .. warpOff[w+1] bound warp w's accesses (w is the
	// flattened block*warpsPerBlock+warp index) in the kernel's access
	// order; len = nWarps+1.
	warpOff []int32
	// segs hold the accesses of every warp, in warp order; each warp lies
	// wholly in one segment.
	segs []segment
}

// segment holds the accesses of a run of whole warps, from warp warp0 up
// to the next segment's warp0. Its offsets are kernel-global: laneOff[0]
// is where its first access's lanes start in the kernel's address pool,
// and addrs holds the pool from there on.
type segment struct {
	warp0 int32
	// Per-access arrays, indexed by the access's position in the segment.
	compute []uint64
	store   []bool
	// laneOff[i] .. laneOff[i+1] bound access i's lane addresses, less
	// laneOff[0], within addrs; len = accesses+1.
	laneOff []int32
	addrs   []uint64
}

// segmentBytes is the size at which Compile cuts a segment: 13 bytes per
// access plus 8 per lane address. Capture's scratch, the open segment, is
// reserved at twice this, so it stays small beside the traces it builds.
const segmentBytes = 1 << 20

// Compile flattens w by running every kernel's Emit for every (block,
// warp) at the given warp size, in grid order, into one Builder. Emit
// must be pure (the usual contract); w itself is not modified and remains
// usable. A kernel without Emit is an error.
func Compile(w *Workload, warpSize int) (*Compiled, error) {
	return compile(w, warpSize, segmentBytes)
}

// compile is Compile with the segment size as a parameter, so tests can
// cut kernels into many segments.
func compile(w *Workload, warpSize, segBytes int) (*Compiled, error) {
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
	b.reserve(segBytes)
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
				if b.openBytes(b.open.warp0) >= segBytes {
					b.cut(segBytes)
				}
			}
		}
		b.cut(segBytes)
		c.kernels = append(c.kernels, b.k)
	}
	return c, nil
}

const maxInt32 = 1<<31 - 1

// Accesses returns the total flattened instruction count.
func (c *Compiled) Accesses() int {
	n := 0
	for i := range c.kernels {
		n += c.kernels[i].accesses()
	}
	return n
}

// AddrWords returns the total lane-address pool size, in uint64 words.
func (c *Compiled) AddrWords() int {
	n := 0
	for i := range c.kernels {
		n += c.kernels[i].addrWords()
	}
	return n
}

// accesses returns the kernel's instruction count.
func (k *CompiledKernel) accesses() int { return int(k.warpOff[len(k.warpOff)-1]) }

// addrWords returns the kernel's lane-address count.
func (k *CompiledKernel) addrWords() int {
	n := 0
	for i := range k.segs {
		n += len(k.segs[i].addrs)
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

// Stream returns a fresh cursor over the given warp's accesses. It finds
// the warp's segment; the only allocation replay ever performs is the
// cursor, and Next and PeekAhead are pure index arithmetic over that
// segment's arrays.
func (k *CompiledKernel) Stream(block, warp int) *Cursor {
	if block < 0 || block >= k.Blocks || warp < 0 || warp >= k.warpsPerBlock {
		panic(fmt.Sprintf("trace: kernel %q stream (block %d, warp %d) outside compiled grid %dx%d — was the workload compiled at a different warp size?",
			k.Name, block, warp, k.Blocks, k.warpsPerBlock))
	}
	i := block*k.warpsPerBlock + warp
	// The warp's segment is the last one that starts at or before it.
	s := &k.segs[sort.Search(len(k.segs), func(j int) bool { return int(k.segs[j].warp0) > i })-1]
	base := k.warpOff[s.warp0]
	return &Cursor{s: s, pos: k.warpOff[i] - base, end: k.warpOff[i+1] - base}
}

// WarpsPerBlock returns the warp count per block the kernel was compiled
// at.
func (k *CompiledKernel) WarpsPerBlock() int { return k.warpsPerBlock }

// Cursor replays one warp's accesses from a segment of a CompiledKernel.
// It implements WarpStream.
type Cursor struct {
	s        *segment
	pos, end int32
}

// at materializes the i-th access of the segment. The Addrs subslice
// aliases the segment's pool with a full slice expression, so an
// accidental append by a caller copies instead of clobbering the next
// access's lanes.
func (c *Cursor) at(i int32) Access {
	s := c.s
	lo, hi := s.laneOff[i]-s.laneOff[0], s.laneOff[i+1]-s.laneOff[0]
	return Access{
		ComputeCycles: s.compute[i],
		Addrs:         s.addrs[lo:hi:hi],
		Store:         s.store[i],
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
