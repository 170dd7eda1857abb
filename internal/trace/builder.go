package trace

import "fmt"

// op is one lane's memory operation, held until the lockstep merge.
type op struct {
	addr  uint64
	store bool
}

// laneSpan is a lane's unmerged operations, ops[next:end].
type laneSpan struct{ next, end int32 }

// Builder is how a generator writes accesses: a Kernel's Emit appends one
// warp's accesses to the Builder's open segment, arrays laid out as a
// CompiledKernel segment, so capture needs no per-access slices.
//
// Compile runs every warp of a kernel through one Builder, whose open
// segment it reserves once and reuses. After a warp that brings the open
// segment to the segment size, and at the kernel's end, the Builder cuts
// it: the open warps are copied into exactly sized arrays. So each access
// is copied once after Emit writes it, and no kernel-sized array is grown
// or copied. Kernel.Stream runs a single warp through a one-warp Builder
// for live replay and keeps the open arrays as they are, warp-sized.
// Both see the same accesses.
//
// A generator writes an access in one of two ways:
//
//   - Per thread: Load and Store append the current lane's next memory
//     operation, EndLane closes the lane, and Lockstep merges the closed
//     lanes into SIMT accesses.
//   - Per access: Addr appends one lane address and EndAccess closes the
//     access.
//
// The lane scratch belongs to the Builder and is empty again after every
// Lockstep, so concurrent compilations of one Workload share nothing.
type Builder struct {
	// k holds the kernel's grid, its warp offsets and the segments cut so
	// far.
	k CompiledKernel
	// open holds the warps written since the last cut, from warp open.warp0
	// on; its arrays are reused from one segment to the next.
	open segment
	// ops holds the closed lanes' operations back to back, then the open
	// lane's; laneEnd[l] is where lane l ends in ops.
	ops     []op
	laneEnd []int32
	pending []laneSpan // Lockstep's scratch
	// err is the first offset overflow; Compile reports it.
	err error
}

// begin starts a kernel of the given grid: blocks × warpsPerBlock warps.
func (b *Builder) begin(k Kernel, blocks, warpsPerBlock int) {
	b.k = CompiledKernel{
		Name:            k.Name,
		Blocks:          blocks,
		ThreadsPerBlock: k.ThreadsPerBlock,
		RegsPerThread:   k.RegsPerThread,
		warpsPerBlock:   warpsPerBlock,
		warpOff:         make([]int32, 1, blocks*warpsPerBlock+1),
	}
	b.reset(0, 0)
}

// reserve sizes the open segment's arrays for segBytes of accesses,
// however they divide between access metadata and lane addresses, so
// that capture's scratch is allocated once, up front, instead of
// growing; only a warp that crosses segBytes can grow it further.
func (b *Builder) reserve(segBytes int) {
	n, lanes := segBytes/13+1, segBytes/8+1
	b.open = segment{
		compute: make([]uint64, 0, n),
		store:   make([]bool, 0, n),
		laneOff: make([]int32, 0, n+1),
		addrs:   make([]uint64, 0, lanes),
	}
}

// reset empties the open segment, keeping its arrays' capacity, to start
// at warp warp0 and at lane lane0 of the kernel's address pool.
func (b *Builder) reset(warp0, lane0 int32) {
	o := &b.open
	o.warp0 = warp0
	o.compute = o.compute[:0]
	o.store = o.store[:0]
	o.laneOff = append(o.laneOff[:0], lane0)
	o.addrs = o.addrs[:0]
}

// Load appends a load of addr to the current lane.
func (b *Builder) Load(addr uint64) { b.ops = append(b.ops, op{addr: addr}) }

// Store appends a store to addr to the current lane.
func (b *Builder) Store(addr uint64) { b.ops = append(b.ops, op{addr: addr, store: true}) }

// EndLane closes the current lane. A lane with no operations is inactive.
func (b *Builder) EndLane() { b.laneEnd = append(b.laneEnd, int32(len(b.ops))) }

// Lockstep merges the closed lanes into SIMT warp accesses: position j
// of every lane forms access j, a lane with fewer operations is simply
// absent from it (the reconvergence-free divergence model), the access
// stores if any present lane stores, and every access costs
// computeCycles. The lanes are then cleared.
func (b *Builder) Lockstep(computeCycles uint64) {
	// pending holds, in lane order, the lanes with operations left; each
	// access takes the next one from every pending lane.
	pending := b.pending[:0]
	start := int32(0)
	for _, end := range b.laneEnd {
		if end > start {
			pending = append(pending, laneSpan{next: start, end: end})
		}
		start = end
	}
	for len(pending) > 0 {
		store := false
		n := 0
		for _, l := range pending {
			o := b.ops[l.next]
			b.open.addrs = append(b.open.addrs, o.addr)
			store = store || o.store
			if l.next++; l.next < l.end {
				pending[n] = l
				n++
			}
		}
		pending = pending[:n]
		b.EndAccess(computeCycles, store)
	}
	b.pending = pending
	b.ops = b.ops[:0]
	b.laneEnd = b.laneEnd[:0]
}

// Addr appends one lane address to the access being written.
func (b *Builder) Addr(addr uint64) { b.open.addrs = append(b.open.addrs, addr) }

// EndAccess closes the access being written: the lane addresses appended
// since the previous access, issued after computeCycles of arithmetic.
// An access with no lanes is pure compute.
func (b *Builder) EndAccess(computeCycles uint64, store bool) {
	o := &b.open
	lanes := int(o.laneOff[0]) + len(o.addrs)
	if lanes > maxInt32 && b.err == nil {
		b.err = fmt.Errorf("trace: kernel %q exceeds %d pooled lane addresses", b.k.Name, maxInt32)
	}
	o.compute = append(o.compute, computeCycles)
	o.store = append(o.store, store)
	o.laneOff = append(o.laneOff, int32(lanes))
}

// endWarp closes the warp Emit just wrote.
func (b *Builder) endWarp() {
	k := &b.k
	if len(b.laneEnd) > 0 || len(b.ops) > 0 {
		panic(fmt.Sprintf("trace: kernel %q Emit left lanes unmerged", k.Name))
	}
	accesses := int(k.warpOff[b.open.warp0]) + len(b.open.compute)
	if accesses > maxInt32 && b.err == nil {
		b.err = fmt.Errorf("trace: kernel %q exceeds %d accesses", k.Name, maxInt32)
	}
	k.warpOff = append(k.warpOff, int32(accesses))
}

// cut seals the open warps into exactly sized segments and empties the
// open segment. A warp is never split, and the warp just written gets a
// segment of its own when it alone holds segBytes or more. Compile cuts
// once the open segment holds segBytes or more, and at the kernel's end.
func (b *Builder) cut(segBytes int) {
	o := &b.open
	end := int32(len(b.k.warpOff)) - 1
	if end == o.warp0 {
		return
	}
	if last := end - 1; last > o.warp0 && b.openBytes(last) >= segBytes {
		b.seal(o.warp0, last)
		b.seal(last, end)
	} else {
		b.seal(o.warp0, end)
	}
	b.reset(end, o.laneOff[len(o.compute)])
}

// openBytes is the size of the open warps from warp w on: 13 bytes per
// access (compute, store, lane offset) and 8 per lane address.
func (b *Builder) openBytes(w int32) int {
	o := &b.open
	i := b.k.warpOff[w] - b.k.warpOff[o.warp0]
	return 13*(len(o.compute)-int(i)) + 8*int(o.laneOff[len(o.compute)]-o.laneOff[i])
}

// seal copies the open warps [from, to) into an exactly sized segment.
func (b *Builder) seal(from, to int32) {
	k, o := &b.k, &b.open
	base := k.warpOff[o.warp0]
	i, j := k.warpOff[from]-base, k.warpOff[to]-base
	lo, hi := o.laneOff[i]-o.laneOff[0], o.laneOff[j]-o.laneOff[0]
	k.segs = append(k.segs, segment{
		warp0:   from,
		compute: append([]uint64(nil), o.compute[i:j]...),
		store:   append([]bool(nil), o.store[i:j]...),
		laneOff: append([]int32(nil), o.laneOff[i:j+1]...),
		addrs:   append([]uint64(nil), o.addrs[lo:hi]...),
	})
}
