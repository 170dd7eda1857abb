package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func sampleBatch(start, first, end uint64, faults, pages int) Batch {
	return Batch{
		Start: start, FirstMigration: first, End: end,
		Faults: faults, Pages: pages, Bytes: uint64(pages) * 65536,
	}
}

func TestBatchTimes(t *testing.T) {
	b := sampleBatch(100, 20100, 60100, 10, 12)
	if b.FaultHandlingTime() != 20000 {
		t.Fatalf("fault handling time = %d", b.FaultHandlingTime())
	}
	if b.ProcessingTime() != 60000 {
		t.Fatalf("processing time = %d", b.ProcessingTime())
	}
}

func TestStatsAggregates(t *testing.T) {
	var s Stats
	s.RecordBatch(sampleBatch(0, 20000, 40000, 4, 4))
	s.RecordBatch(sampleBatch(50000, 70000, 130000, 8, 12))
	if s.NumBatches() != 2 {
		t.Fatalf("NumBatches = %d", s.NumBatches())
	}
	if got := s.MeanBatchPages(); got != 8 {
		t.Fatalf("MeanBatchPages = %v, want 8", got)
	}
	if got := s.MeanBatchBytes(); got != 8*65536 {
		t.Fatalf("MeanBatchBytes = %v", got)
	}
	if got := s.MeanBatchProcessingTime(); got != 60000 {
		t.Fatalf("MeanBatchProcessingTime = %v, want 60000", got)
	}
	if got := s.MedianBatchProcessingTime(); got != 60000 {
		t.Fatalf("MedianBatchProcessingTime = %v, want 60000", got)
	}
}

func TestMedianOddCount(t *testing.T) {
	var s Stats
	for _, d := range []uint64{10, 30, 20} {
		s.RecordBatch(sampleBatch(0, 5, d, 1, 1))
	}
	if got := s.MedianBatchProcessingTime(); got != 20 {
		t.Fatalf("median = %v, want 20", got)
	}
}

func TestEmptyStatsAreZero(t *testing.T) {
	var s Stats
	if s.MeanBatchPages() != 0 || s.MeanBatchProcessingTime() != 0 ||
		s.MedianBatchProcessingTime() != 0 || s.PrematureEvictionRate() != 0 {
		t.Fatal("empty stats not zero")
	}
	if _, ok := s.MeanLifetime(); ok {
		t.Fatal("MeanLifetime reported ok with no samples")
	}
}

func TestPrematureEvictionRate(t *testing.T) {
	s := Stats{Evictions: 8, PrematureEv: 2}
	if got := s.PrematureEvictionRate(); got != 0.25 {
		t.Fatalf("rate = %v, want 0.25", got)
	}
}

func TestLifetime(t *testing.T) {
	var s Stats
	s.RecordLifetime(100)
	s.RecordLifetime(300)
	mean, ok := s.MeanLifetime()
	if !ok || mean != 200 {
		t.Fatalf("mean lifetime = %v (ok=%v), want 200", mean, ok)
	}
}

func TestPerPageFaultTime(t *testing.T) {
	var s Stats
	s.RecordBatch(sampleBatch(0, 10, 100, 2, 4))
	s.RecordBatch(Batch{Start: 0, FirstMigration: 5, End: 50}) // zero pages: skipped
	bytes, perPage := s.PerPageFaultTime()
	if len(bytes) != 1 || len(perPage) != 1 {
		t.Fatalf("got %d samples, want 1", len(bytes))
	}
	if perPage[0] != 25 {
		t.Fatalf("per-page time = %v, want 25", perPage[0])
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(10)
	for _, v := range []float64{0, 5, 9.99, 10, 25, 25} {
		h.Add(v)
	}
	want := []int{3, 1, 2}
	if len(h.Counts) != len(want) {
		t.Fatalf("buckets = %v, want %v", h.Counts, want)
	}
	for i := range want {
		if h.Counts[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", h.Counts, want)
		}
	}
	fr := h.Fractions()
	if math.Abs(fr[0]-0.5) > 1e-9 {
		t.Fatalf("fraction[0] = %v, want 0.5", fr[0])
	}
}

func TestHistogramRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative sample did not panic")
		}
	}()
	NewHistogram(1).Add(-1)
}

func TestHistogramFractionsSumToOne(t *testing.T) {
	f := func(raw []uint16) bool {
		h := NewHistogram(7)
		for _, v := range raw {
			h.Add(float64(v))
		}
		if len(raw) == 0 {
			return true
		}
		var sum float64
		for _, fr := range h.Fractions() {
			sum += fr
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
