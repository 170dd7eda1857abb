package workload

import (
	"fmt"

	"uvmsim/internal/layout"
	"uvmsim/internal/trace"
)

// The regular workloads model the Rodinia kernels of Figure 1 (CFD, DWT,
// GM, H3D, HS, LUD) at the level that matters for the working-set
// analysis: each thread block works on its own contiguous tile of the
// input/output arrays, so the live working set scales with the number of
// concurrently active blocks (and hence with the active SM count). The
// variants differ in array counts, halo widths, and pass structure.

// regularShape captures how one regular workload touches its tiles.
type regularShape struct {
	arrays int  // number of equally-sized arrays (in/out/aux)
	halo   int  // extra elements read past the tile on each side
	passes int  // sweeps over the tile per kernel
	shrink bool // later passes cover half the tile (DWT-style)
}

var regularShapes = map[string]regularShape{
	"CFD": {arrays: 3, halo: 0, passes: 2}, // flux + variables + normals
	"DWT": {arrays: 2, halo: 0, passes: 3, shrink: true},
	"GM":  {arrays: 3, halo: 0, passes: 1},  // C = A * B tiles
	"H3D": {arrays: 2, halo: 64, passes: 2}, // 3D stencil halo
	"HS":  {arrays: 2, halo: 32, passes: 2}, // 2D stencil halo
	"LUD": {arrays: 1, halo: 0, passes: 2},  // in-place tiles
}

// buildRegular constructs the named Figure 1 regular workload: 64 thread
// blocks, each owning RegularElems 4-byte elements per array.
func buildRegular(name string, p Params) *trace.Workload {
	shape, ok := regularShapes[name]
	if !ok {
		panic("workload: unknown regular workload " + name)
	}
	const blocks = 64
	tile := p.RegularElems
	sp := layout.NewSpace(p.PageBytes)
	arrays := make([]layout.Array, shape.arrays)
	for i := range arrays {
		arrays[i] = sp.Alloc(fmt.Sprintf("%s-arr%d", name, i), 4, blocks*tile)
	}
	tpb := p.ThreadsPerBlock
	k := trace.Kernel{
		Name:            name,
		Blocks:          blocks,
		ThreadsPerBlock: tpb,
		RegsPerThread:   p.RegsPerThread,
		Emit: func(tb *trace.Builder, block, warp int) {
			warpsPerBlock := tpb / 32
			base := block * tile
			size := tile
			for pass := 0; pass < shape.passes; pass++ {
				if shape.shrink && pass > 0 {
					size /= 2
				}
				// Each warp strides through its block's tile.
				for i := warp * 32; i < size; i += warpsPerBlock * 32 {
					for ai, arr := range arrays {
						for lane := 0; lane < 32 && i+lane < size; lane++ {
							idx := base + i + lane
							if shape.halo > 0 && ai == 0 {
								// Stencil input reads reach into the halo.
								idx += shape.halo
								if idx >= arr.Len {
									idx = arr.Len - 1
								}
							}
							tb.Addr(arr.Addr(idx))
						}
						// The last array is the output.
						tb.EndAccess(uint64(p.ComputeCycles), ai == len(arrays)-1)
					}
				}
			}
		},
	}
	return &trace.Workload{Name: name, Space: sp, Kernels: []trace.Kernel{k}, Irregular: false}
}
