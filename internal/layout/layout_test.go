package layout

import (
	"testing"
	"testing/quick"
)

func TestAllocAlignment(t *testing.T) {
	s := NewSpace(64 << 10)
	a := s.Alloc("offsets", 4, 100)
	b := s.Alloc("edges", 4, 100000)
	c := s.Alloc("props", 8, 3)
	for _, arr := range []Array{a, b, c} {
		if arr.Base%(64<<10) != 0 {
			t.Errorf("%s base %#x not page aligned", arr.Name, arr.Base)
		}
	}
	if b.Base < a.End() {
		t.Error("allocations overlap")
	}
	if c.Base < b.End() {
		t.Error("allocations overlap")
	}
}

func TestAddr(t *testing.T) {
	s := NewSpace(4096)
	a := s.Alloc("x", 8, 10)
	if a.Addr(0) != a.Base {
		t.Errorf("Addr(0) = %#x, want base %#x", a.Addr(0), a.Base)
	}
	if a.Addr(3) != a.Base+24 {
		t.Errorf("Addr(3) = %#x, want base+24", a.Addr(3))
	}
}

func TestAddrPanicsOutOfRange(t *testing.T) {
	s := NewSpace(4096)
	a := s.Alloc("x", 4, 5)
	for _, i := range []int{-1, 5, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Addr(%d) did not panic", i)
				}
			}()
			a.Addr(i)
		}()
	}
}

func TestFootprint(t *testing.T) {
	s := NewSpace(64 << 10)
	s.Alloc("a", 4, 1)     // rounds to 1 page
	s.Alloc("b", 4, 16384) // exactly 1 page
	s.Alloc("c", 4, 16385) // 2 pages
	if got := s.FootprintPages(); got != 4 {
		t.Fatalf("footprint = %d pages, want 4", got)
	}
	if s.FootprintBytes() != 4*(64<<10) {
		t.Fatalf("footprint bytes = %d", s.FootprintBytes())
	}
}

func TestZeroLengthArrayOccupiesAPage(t *testing.T) {
	s := NewSpace(4096)
	s.Alloc("empty", 4, 0)
	if s.FootprintPages() != 1 {
		t.Fatalf("zero-length alloc footprint = %d pages, want 1", s.FootprintPages())
	}
}

func TestContainsAndPageOf(t *testing.T) {
	s := NewSpace(4096)
	a := s.Alloc("x", 1, 4096)
	if !s.Contains(a.Base) || !s.Contains(a.End()-1) {
		t.Error("Contains rejected in-range address")
	}
	if s.Contains(a.Base - 1) {
		t.Error("Contains accepted address below managed range")
	}
	if s.Contains(s.next) {
		t.Error("Contains accepted address past the bump pointer")
	}
}

func TestNewSpaceRejectsBadPageSize(t *testing.T) {
	for _, sz := range []uint64{0, 3, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSpace(%d) did not panic", sz)
				}
			}()
			NewSpace(sz)
		}()
	}
}

func TestAllocationsNeverOverlapProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		s := NewSpace(4096)
		var arrays []Array
		for i, sz := range sizes {
			if i > 20 {
				break
			}
			arrays = append(arrays, s.Alloc("a", 4, int(sz)))
		}
		for i := 1; i < len(arrays); i++ {
			if arrays[i].Base < arrays[i-1].End() {
				return false
			}
			if arrays[i].Base%4096 != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
