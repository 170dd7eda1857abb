// Package mmu provides the indexed set-associative LRU structure shared by
// every per-access lookup in the simulator: the L1/L2 data caches
// (internal/gpu), the L1/L2 TLBs, and the page-walk cache (internal/vm).
// Before this package each of those carried its own copy-based linear-scan
// LRU; a simulated memory access walks several of them, so they are the
// inner loop of every experiment.
//
// SetLRU keeps three pieces of state: packed per-slot key/liveness arrays,
// an intrusive doubly-linked recency list per set (threaded through two
// flat int32 arrays, with one sentinel node per set), and an open-addressed
// key→slot index. Every operation is O(1): a lookup is one index probe plus
// a relink, and an eviction takes the node before the sentinel — the set's
// LRU — with no scan at all. Two earlier designs lost to this one on the
// simulator's shapes: per-slot recency stamps made hits a single store but
// needed an O(ways) min-scan per eviction, which at 64-way associativity
// cost more than everything else combined (as either a mispredicting
// branchy loop or a serial dependency chain when written branch-free).
//
// The index is deliberately minimal: a cell holds only a slot number, and
// whether a probed cell matches a key is decided by reading the packed
// arrays, which are authoritative — so a cell left behind by an eviction or
// invalidation simply stops matching, and the index never deletes. Probes
// skip such stale cells; when they fill the table past a threshold the
// index is rebuilt from the packed arrays, amortized O(1) per eviction.
// This removes both the stored-key column (halving the table's cache
// footprint) and backward-shift deletion (whose mispredicted probe loops
// profiling showed cost more than the eviction itself) from the hot path.
//
// Nothing allocates after construction. Replacement order is exactly the
// LRU the old code implemented — the frozen Reference in reference.go is
// the oracle the property tests hold this implementation to.
package mmu

// SetLRU is a set-associative LRU key store. A key's set is key % sets;
// within a set, Insert fills free ways first and then evicts the
// least-recently-used key. A single-set SetLRU is a fully-associative LRU.
type SetLRU struct {
	nSets   int
	ways    int
	setMask uint64 // nSets-1 when nSets is a power of two, else 0
	n       int    // live entries

	// Per-slot state; slot = set*ways + way. These arrays are the ground
	// truth: index cells are hints that must agree with them to count.
	keys []uint64
	live []bool

	// Circular per-set recency lists threaded through flat arrays. Set s
	// owns sentinel node nSets*ways+s; next[sentinel] is the set's MRU,
	// prev[sentinel] its LRU. Free slots cluster at the LRU end (they start
	// there and Invalidate sends slots back there), so taking
	// prev[sentinel] fills free ways before evicting, like the old code.
	prev, next []int32

	idx index
}

// NewSetLRU builds a structure with the given set count and associativity.
// It panics on non-positive shapes: callers size it from validated configs.
func NewSetLRU(nSets, ways int) *SetLRU {
	if nSets <= 0 || ways <= 0 {
		panic("mmu: SetLRU needs positive sets and ways")
	}
	slots := nSets * ways
	c := &SetLRU{
		nSets: nSets,
		ways:  ways,
		keys:  make([]uint64, slots),
		live:  make([]bool, slots),
		prev:  make([]int32, slots+nSets),
		next:  make([]int32, slots+nSets),
		idx:   newIndex(slots),
	}
	if nSets&(nSets-1) == 0 {
		c.setMask = uint64(nSets - 1) // every Table 1 shape; avoids the div
	}
	for s := 0; s < nSets; s++ {
		sent := int32(slots + s)
		base := int32(s * ways)
		// sentinel -> base -> base+1 -> ... -> base+ways-1 -> sentinel
		node := sent
		for w := int32(0); w < int32(ways); w++ {
			c.next[node] = base + w
			c.prev[base+w] = node
			node = base + w
		}
		c.next[node] = sent
		c.prev[sent] = node
	}
	return c
}

// Len returns the number of live entries.
func (c *SetLRU) Len() int { return c.n }

func (c *SetLRU) setOf(key uint64) int {
	if c.setMask != 0 || c.nSets == 1 {
		return int(key & c.setMask)
	}
	return int(key % uint64(c.nSets))
}

func (c *SetLRU) sentinel(key uint64) int32 {
	return int32(c.nSets*c.ways + c.setOf(key))
}

func (c *SetLRU) unlink(v int32) {
	p, n := c.prev[v], c.next[v]
	c.next[p] = n
	c.prev[n] = p
}

// moveToFront makes v its set's MRU.
func (c *SetLRU) moveToFront(v, sent int32) {
	if c.next[sent] == v {
		return
	}
	c.unlink(v)
	m := c.next[sent]
	c.next[sent] = v
	c.prev[v] = sent
	c.next[v] = m
	c.prev[m] = v
}

// moveToBack parks v behind every node of its set, keeping freed slots
// clustered at the LRU end.
func (c *SetLRU) moveToBack(v, sent int32) {
	if c.prev[sent] == v {
		return
	}
	c.unlink(v)
	m := c.prev[sent]
	c.prev[sent] = v
	c.next[v] = sent
	c.prev[v] = m
	c.next[m] = v
}

// idxGet resolves key to its live slot. A cell's fingerprint filters
// non-matches without touching the packed arrays; a fingerprint match is
// then validated against them, so stale cells (and the rare fingerprint
// collision) read as non-matches and the probe moves on. Any cell that
// passes validation yields a correct answer by construction.
func (c *SetLRU) idxGet(key uint64) (int32, bool) {
	p := key * fibMult
	fp := uint64(uint32(p)) << 32
	i := p >> c.idx.shift
	for {
		cell := c.idx.cells[i]
		if cell == emptyCell {
			return 0, false
		}
		if cell&fpMask == fp {
			if s := int32(uint32(cell)); c.keys[s] == key && c.live[s] {
				return s, true
			}
		}
		i = (i + 1) & c.idx.mask
	}
}

// idxPut records key's slot, reclaiming the first fingerprint-matching cell
// that serves no live key — in particular the stale cell the key itself
// left when it was last evicted, so re-inserting a key does not grow the
// table. Reclaiming is safe because probe chains skip occupied cells by
// content-blind stepping: rewriting a cell never breaks another key's
// reachability, and a cell still serving a live key (it validates against
// the packed arrays under this fingerprint) is left alone. Cells never
// empty between rebuilds, so a present key is always reachable before an
// empty cell.
func (c *SetLRU) idxPut(key uint64, slot int32) {
	p := key * fibMult
	fp := uint64(uint32(p)) << 32
	i := p >> c.idx.shift
	for {
		cell := c.idx.cells[i]
		if cell == emptyCell {
			c.idx.cells[i] = fp | uint64(uint32(slot))
			c.idx.used++
			return
		}
		if cell&fpMask == fp {
			s := int32(uint32(cell))
			k2 := c.keys[s]
			if (k2 == key && c.live[s]) || !c.live[s] || uint64(uint32(k2*fibMult))<<32 != fp {
				c.idx.cells[i] = fp | uint64(uint32(slot))
				return
			}
		}
		i = (i + 1) & c.idx.mask
	}
}

// Lookup reports whether key is present, promoting it to MRU if so.
func (c *SetLRU) Lookup(key uint64) bool {
	slot, ok := c.idxGet(key)
	if !ok {
		return false
	}
	c.moveToFront(slot, c.sentinel(key))
	return true
}

// Contains reports presence without touching recency state.
func (c *SetLRU) Contains(key uint64) bool {
	_, ok := c.idxGet(key)
	return ok
}

// Insert adds key at the MRU position of its set, evicting the set's LRU
// entry if no way is free. A key already present is left untouched —
// recency belongs to Lookup (matching the old TLB/walk-cache semantics).
// It returns the evicted key, if any.
func (c *SetLRU) Insert(key uint64) (victim uint64, evicted bool) {
	if _, ok := c.idxGet(key); ok {
		return 0, false
	}
	sent := c.sentinel(key)
	slot := c.prev[sent] // the set's LRU node, or a free way if any remain
	if c.live[slot] {
		victim, evicted = c.keys[slot], true // stale index cell left behind
	} else {
		c.live[slot] = true
		c.n++
	}
	c.keys[slot] = key
	c.moveToFront(slot, sent)
	c.idxPut(key, slot)
	if c.idx.used >= c.idx.limit {
		c.rebuildIndex()
	}
	return victim, evicted
}

// Invalidate removes key. It reports whether an entry was removed.
func (c *SetLRU) Invalidate(key uint64) bool {
	slot, ok := c.idxGet(key)
	if !ok {
		return false
	}
	c.live[slot] = false // the index cell goes stale; keys[slot] survives until reuse
	c.n--
	c.moveToBack(slot, c.sentinel(key))
	return true
}

// InvalidateRange removes every key in [lo, hi) and returns the count
// removed. It probes per key when the range is narrower than the slot
// count, and scans the packed arrays otherwise — whichever bounds the work
// (page invalidation ranges and cache populations both vary by orders of
// magnitude across configs).
func (c *SetLRU) InvalidateRange(lo, hi uint64) int {
	if hi <= lo {
		return 0
	}
	removed := 0
	if hi-lo <= uint64(len(c.keys)) {
		for k := lo; k < hi; k++ {
			if c.Invalidate(k) {
				removed++
			}
		}
		return removed
	}
	for slot, alive := range c.live {
		if !alive {
			continue
		}
		if k := c.keys[slot]; k >= lo && k < hi {
			c.live[slot] = false
			c.n--
			c.moveToBack(int32(slot), c.sentinel(k))
			removed++
		}
	}
	return removed
}

// rebuildIndex clears the table and re-enters every live key, shedding the
// stale cells evictions and invalidations left behind. Amortized cost is
// constant: between rebuilds at least limit-slots cells must go stale.
func (c *SetLRU) rebuildIndex() {
	for i := range c.idx.cells {
		c.idx.cells[i] = emptyCell
	}
	c.idx.used = 0
	for slot, alive := range c.live {
		if alive {
			c.idxPut(c.keys[slot], int32(slot))
		}
	}
}

// Index cell layout: fingerprint in the high 32 bits, slot in the low 32.
// The fingerprint is the low half of the key's Fibonacci-hash product — the
// home position comes from the high bits, so the two are decorrelated. A
// slot never reaches 2^31, so the all-ones cell is free to mean empty.
const (
	fibMult   = 0x9E3779B97F4A7C15
	fpMask    = uint64(0xFFFFFFFF) << 32
	emptyCell = ^uint64(0)
)

// index is a fixed-capacity open-addressed hash table from key to slot with
// linear probing, fingerprint-filtered cells (the owner's packed arrays
// have the final say on matches) and no deletion: cells go stale when their
// key is evicted or its slot reused, probes skip them, and wholesale
// rebuild sheds them once they fill the table past a threshold. A custom
// table rather than a Go map because the per-access hot path pays one probe
// on every lookup: Fibonacci hashing over one flat uint64 array is several
// times cheaper than map[uint64]int32, and it allocates nothing after
// construction.
type index struct {
	mask  uint64
	shift uint
	used  int // occupied cells, live or stale
	limit int // rebuild threshold; always < len(cells), so probes terminate
	cells []uint64
}

func newIndex(capacity int) index {
	size := 8
	for size < 4*capacity {
		size <<= 1
	}
	shift := uint(64)
	for s := size; s > 1; s >>= 1 {
		shift--
	}
	// Rebuilding at half full keeps probe clusters short (the load never
	// exceeds 0.5) while still leaving a stale-cell budget of a full
	// capacity between rebuilds.
	ix := index{
		mask:  uint64(size - 1),
		shift: shift,
		limit: size / 2,
		cells: make([]uint64, size),
	}
	for i := range ix.cells {
		ix.cells[i] = emptyCell
	}
	return ix
}
