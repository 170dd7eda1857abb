// Package metrics collects the measurements the paper reports: batch
// timelines (count, size, fault-handling and processing times), page
// lifetime and premature-eviction statistics, and generic counters and
// histograms used by the experiment drivers.
package metrics

import (
	"fmt"
	"sort"
)

// Batch records one fault-batch handled by the UVM runtime, mirroring the
// timestamps the NVIDIA Visual Profiler exposes (Section 3 of the paper).
type Batch struct {
	Start          uint64 // batch processing begins (faults drained)
	FirstMigration uint64 // first page transfer begins
	End            uint64 // last page migrated: batch processing ends
	Faults         int    // page faults handled in the batch
	Pages          int    // pages migrated (faulted + prefetched)
	Bytes          uint64 // total migrated bytes
	Evictions      int    // evictions performed during the batch
}

// FaultHandlingTime is the GPU runtime fault handling time: batch start to
// first page transfer.
func (b Batch) FaultHandlingTime() uint64 { return b.FirstMigration - b.Start }

// ProcessingTime is the full batch processing time: batch start to last
// page migrated.
func (b Batch) ProcessingTime() uint64 { return b.End - b.Start }

// Stats accumulates a simulation run's measurements.
type Stats struct {
	Batches []Batch

	// Page movement
	Migrations   uint64 // pages migrated CPU->GPU
	Prefetches   uint64 // subset of Migrations initiated by the prefetcher
	Evictions    uint64 // pages evicted GPU->CPU
	PrematureEv  uint64 // evictions of pages later re-faulted
	PreemptiveEv uint64 // evictions issued preemptively by the top-half ISR
	FaultsRaised uint64 // page faults entering the fault buffer

	// Thread oversubscription
	ContextSwitches     uint64
	ContextSwitchCycles uint64
	TOFinalDegree       int    // controller degree when the run stopped
	TODegreeSum         uint64 // summed controller-window degrees (TOMeanDegree)
	TODegreeCount       uint64 // controller windows sampled

	// RunaheadFaults counts speculative faults raised by runahead.
	RunaheadFaults uint64

	// Lifetime tracking (cycles between allocation and eviction; read
	// through MeanLifetime)
	LifetimeSum   uint64
	LifetimeCount uint64

	// Execution
	Cycles     uint64 // end-to-end kernel execution time
	Instrs     uint64 // warp-instructions executed
	TLBL1Hits  uint64
	TLBL1Miss  uint64
	TLBL2Hits  uint64
	TLBL2Miss  uint64
	CacheL1Hit uint64
	CacheL1Mis uint64
	CacheL2Hit uint64
	CacheL2Mis uint64
}

// RecordBatch appends a completed batch.
func (s *Stats) RecordBatch(b Batch) { s.Batches = append(s.Batches, b) }

// RecordLifetime accumulates one page's residency lifetime.
func (s *Stats) RecordLifetime(cycles uint64) {
	s.LifetimeSum += cycles
	s.LifetimeCount++
}

// MeanLifetime returns the average page lifetime, or 0 with ok=false when
// no page has been evicted yet.
func (s *Stats) MeanLifetime() (mean float64, ok bool) {
	if s.LifetimeCount == 0 {
		return 0, false
	}
	return float64(s.LifetimeSum) / float64(s.LifetimeCount), true
}

// RecordTODegree accumulates one controller-window sample of the
// thread-oversubscription degree.
func (s *Stats) RecordTODegree(degree int) {
	s.TODegreeSum += uint64(degree)
	s.TODegreeCount++
}

// TOMeanDegree returns the mean oversubscription degree across controller
// windows, or 0 with ok=false when the controller never ticked.
func (s *Stats) TOMeanDegree() (mean float64, ok bool) {
	if s.TODegreeCount == 0 {
		return 0, false
	}
	return float64(s.TODegreeSum) / float64(s.TODegreeCount), true
}

// NumBatches returns the number of completed batches.
func (s *Stats) NumBatches() int { return len(s.Batches) }

// MeanBatchPages returns the average number of pages per batch.
func (s *Stats) MeanBatchPages() float64 {
	if len(s.Batches) == 0 {
		return 0
	}
	total := 0
	for _, b := range s.Batches {
		total += b.Pages
	}
	return float64(total) / float64(len(s.Batches))
}

// MeanBatchBytes returns the average batch size in bytes.
func (s *Stats) MeanBatchBytes() float64 {
	if len(s.Batches) == 0 {
		return 0
	}
	var total uint64
	for _, b := range s.Batches {
		total += b.Bytes
	}
	return float64(total) / float64(len(s.Batches))
}

// MeanBatchProcessingTime returns the average batch processing time in
// cycles.
func (s *Stats) MeanBatchProcessingTime() float64 {
	if len(s.Batches) == 0 {
		return 0
	}
	var total uint64
	for _, b := range s.Batches {
		total += b.ProcessingTime()
	}
	return float64(total) / float64(len(s.Batches))
}

// MedianBatchProcessingTime returns the median batch processing time.
func (s *Stats) MedianBatchProcessingTime() float64 {
	if len(s.Batches) == 0 {
		return 0
	}
	times := make([]uint64, len(s.Batches))
	for i, b := range s.Batches {
		times[i] = b.ProcessingTime()
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	n := len(times)
	if n%2 == 1 {
		return float64(times[n/2])
	}
	return float64(times[n/2-1]+times[n/2]) / 2
}

// PrematureEvictionRate returns premature evictions as a fraction of all
// evictions (0 when nothing was evicted).
func (s *Stats) PrematureEvictionRate() float64 {
	if s.Evictions == 0 {
		return 0
	}
	return float64(s.PrematureEv) / float64(s.Evictions)
}

// PerPageFaultTime returns, for each batch, (batch bytes, processing time
// per page). This is the Figure 3 scatter.
func (s *Stats) PerPageFaultTime() (bytes []uint64, perPage []float64) {
	for _, b := range s.Batches {
		if b.Pages == 0 {
			continue
		}
		bytes = append(bytes, b.Bytes)
		perPage = append(perPage, float64(b.ProcessingTime())/float64(b.Pages))
	}
	return bytes, perPage
}

// Histogram is a fixed-bucket histogram over float64 samples.
type Histogram struct {
	BucketWidth float64
	Counts      []int
	total       int
}

// NewHistogram returns a histogram with the given bucket width.
func NewHistogram(bucketWidth float64) *Histogram {
	if bucketWidth <= 0 {
		panic("metrics: non-positive bucket width")
	}
	return &Histogram{BucketWidth: bucketWidth}
}

// Add records a sample. Negative samples panic: the measured quantities
// (sizes, times) are nonnegative by construction.
func (h *Histogram) Add(v float64) {
	if v < 0 {
		panic(fmt.Sprintf("metrics: negative sample %v", v))
	}
	b := int(v / h.BucketWidth)
	for len(h.Counts) <= b {
		h.Counts = append(h.Counts, 0)
	}
	h.Counts[b]++
	h.total++
}

// Fractions returns each bucket's share of the samples.
func (h *Histogram) Fractions() []float64 {
	out := make([]float64, len(h.Counts))
	if h.total == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(h.total)
	}
	return out
}
