package mmu

// Reference is the pre-indexing implementation of the set-associative LRU,
// frozen verbatim from the linear scans that gpu.Cache, vm.TLB, and
// vm.walkCache each carried before internal/mmu existed: per-set slices
// ordered MRU-last, with copy-based promotion and eviction. Every operation
// is O(ways).
//
// It exists for two consumers and must not gain users in the simulator
// itself:
//   - the property tests, which drive random operation streams through a
//     Reference and a SetLRU in lockstep and demand identical observable
//     behaviour (hits, evictions, lengths) before trusting the index;
//   - the BenchmarkReference*Shape entries, the old side of the
//     BenchmarkSetLRU*Shape pairs that measure the indexed LRU's speedup.
type Reference struct {
	sets  [][]uint64 // per set, MRU last
	nSets int
	ways  int
}

// NewReference builds a reference LRU with the given shape.
func NewReference(nSets, ways int) *Reference {
	if nSets <= 0 || ways <= 0 {
		panic("mmu: Reference needs positive sets and ways")
	}
	r := &Reference{sets: make([][]uint64, nSets), nSets: nSets, ways: ways}
	for i := range r.sets {
		r.sets[i] = make([]uint64, 0, ways)
	}
	return r
}

func (r *Reference) setOf(key uint64) int { return int(key % uint64(r.nSets)) }

// Lookup reports presence, promoting a hit to MRU.
func (r *Reference) Lookup(key uint64) bool {
	set := r.sets[r.setOf(key)]
	for i, k := range set {
		if k == key {
			copy(set[i:], set[i+1:])
			set[len(set)-1] = key
			return true
		}
	}
	return false
}

// Contains reports presence without touching recency.
func (r *Reference) Contains(key uint64) bool {
	for _, k := range r.sets[r.setOf(key)] {
		if k == key {
			return true
		}
	}
	return false
}

// Insert adds key at MRU, evicting the set's LRU entry when full; a present
// key is left untouched. It returns the evicted key, if any.
func (r *Reference) Insert(key uint64) (victim uint64, evicted bool) {
	s := r.setOf(key)
	set := r.sets[s]
	for _, k := range set {
		if k == key {
			return 0, false
		}
	}
	if len(set) == r.ways {
		victim, evicted = set[0], true
		copy(set, set[1:])
		set[len(set)-1] = key
	} else {
		set = append(set, key)
		r.sets[s] = set
	}
	return victim, evicted
}

// Invalidate removes key, reporting whether an entry was removed.
func (r *Reference) Invalidate(key uint64) bool {
	s := r.setOf(key)
	set := r.sets[s]
	for i, k := range set {
		if k == key {
			r.sets[s] = append(set[:i], set[i+1:]...)
			return true
		}
	}
	return false
}

// InvalidateRange removes every key in [lo, hi) by scanning all sets (the
// old gpu.Cache.InvalidatePage strategy) and returns the count removed.
func (r *Reference) InvalidateRange(lo, hi uint64) int {
	removed := 0
	for s, set := range r.sets {
		kept := set[:0]
		for _, k := range set {
			if k >= lo && k < hi {
				removed++
			} else {
				kept = append(kept, k)
			}
		}
		r.sets[s] = kept
	}
	return removed
}

// Len returns the number of live entries.
func (r *Reference) Len() int {
	n := 0
	for _, s := range r.sets {
		n += len(s)
	}
	return n
}
