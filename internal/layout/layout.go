// Package layout models the virtual-address-space layout of a workload's
// data structures. Workload trace generators allocate their arrays (CSR
// offsets, edge lists, property arrays, frontier queues, ...) in a Space and
// derive the addresses each GPU thread touches from it, exactly as the CUDA
// allocator lays out cudaMallocManaged buffers in the real system.
package layout

import "fmt"

// Array is a contiguous, page-aligned allocation in the managed address
// space.
type Array struct {
	Name      string
	Base      uint64
	ElemBytes uint64
	Len       int
}

// Addr returns the address of element i. It panics on out-of-range indices:
// a generator computing a bad address is a modeling bug that must not be
// silently simulated.
func (a Array) Addr(i int) uint64 {
	if i < 0 || i >= a.Len {
		panic(fmt.Sprintf("layout: %s[%d] out of range (len %d)", a.Name, i, a.Len))
	}
	return a.Base + uint64(i)*a.ElemBytes
}

// Bytes returns the allocation size in bytes (before page rounding).
func (a Array) Bytes() uint64 { return uint64(a.Len) * a.ElemBytes }

// End returns the first address past the array.
func (a Array) End() uint64 { return a.Base + a.Bytes() }

// Space is a bump allocator over a managed virtual address range.
type Space struct {
	pageBytes uint64
	next      uint64
	arrays    []Array
}

// managedBase is where managed allocations start. A nonzero base catches
// generators that conjure addresses instead of deriving them from arrays.
const managedBase = 0x1_0000_0000

// NewSpace returns a Space that aligns allocations to pageBytes.
func NewSpace(pageBytes uint64) *Space {
	if pageBytes == 0 || pageBytes&(pageBytes-1) != 0 {
		panic(fmt.Sprintf("layout: page size %d not a power of two", pageBytes))
	}
	return &Space{pageBytes: pageBytes, next: managedBase}
}

// PageBytes returns the page size the space aligns to.
func (s *Space) PageBytes() uint64 { return s.pageBytes }

// Alloc reserves a page-aligned array of n elements of elemBytes each.
func (s *Space) Alloc(name string, elemBytes uint64, n int) Array {
	if n < 0 || elemBytes == 0 {
		panic(fmt.Sprintf("layout: Alloc(%q, %d, %d)", name, elemBytes, n))
	}
	a := Array{Name: name, Base: s.next, ElemBytes: elemBytes, Len: n}
	size := a.Bytes()
	size = (size + s.pageBytes - 1) / s.pageBytes * s.pageBytes
	if size == 0 {
		size = s.pageBytes // zero-length arrays still occupy a page slot
	}
	s.next += size
	s.arrays = append(s.arrays, a)
	return a
}

// Arrays returns all allocations in allocation order.
func (s *Space) Arrays() []Array { return s.arrays }

// FootprintBytes returns the total reserved bytes including page rounding.
func (s *Space) FootprintBytes() uint64 { return s.next - managedBase }

// FootprintPages returns the footprint in pages.
func (s *Space) FootprintPages() int {
	return int(s.FootprintBytes() / s.pageBytes)
}

// Contains reports whether addr falls inside some allocation (including
// its page-rounding tail, which demand paging also migrates).
func (s *Space) Contains(addr uint64) bool {
	return addr >= managedBase && addr < s.next
}
