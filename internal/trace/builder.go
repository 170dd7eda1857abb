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
// warp's accesses straight into the flat arrays of a CompiledKernel, so
// capture needs no per-access slices and no copy. Compile runs every
// warp of a kernel through one Builder; Kernel.Stream runs a single warp
// through a one-warp Builder for live replay. Both therefore see the same
// accesses.
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
	k CompiledKernel
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
		laneOff:         []int32{0},
	}
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
			b.k.addrs = append(b.k.addrs, o.addr)
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
func (b *Builder) Addr(addr uint64) { b.k.addrs = append(b.k.addrs, addr) }

// EndAccess closes the access being written: the lane addresses appended
// since the previous access, issued after computeCycles of arithmetic.
// An access with no lanes is pure compute.
func (b *Builder) EndAccess(computeCycles uint64, store bool) {
	k := &b.k
	if len(k.addrs) > maxInt32 && b.err == nil {
		b.err = fmt.Errorf("trace: kernel %q exceeds %d pooled lane addresses", k.Name, maxInt32)
	}
	k.compute = append(k.compute, computeCycles)
	k.store = append(k.store, store)
	k.laneOff = append(k.laneOff, int32(len(k.addrs)))
}

// endWarp closes the warp Emit just wrote.
func (b *Builder) endWarp() {
	k := &b.k
	if len(b.laneEnd) > 0 || len(b.ops) > 0 {
		panic(fmt.Sprintf("trace: kernel %q Emit left lanes unmerged", k.Name))
	}
	if len(k.compute) > maxInt32 && b.err == nil {
		b.err = fmt.Errorf("trace: kernel %q exceeds %d accesses", k.Name, maxInt32)
	}
	k.warpOff = append(k.warpOff, int32(len(k.compute)))
}
