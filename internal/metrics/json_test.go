package metrics

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestStatsJSONRoundTrip: plain encoding/json must restore every field
// the result cache stores, including the accumulators behind the
// derived means.
func TestStatsJSONRoundTrip(t *testing.T) {
	s := &Stats{
		Batches: []Batch{
			{Start: 10, FirstMigration: 30, End: 90, Faults: 4, Pages: 7, Bytes: 7 << 16, Evictions: 2},
			{Start: 100, FirstMigration: 120, End: 150, Faults: 1, Pages: 1, Bytes: 1 << 16},
		},
		Migrations:          8,
		Prefetches:          3,
		Evictions:           2,
		PrematureEv:         1,
		PreemptiveEv:        2,
		FaultsRaised:        5,
		ContextSwitches:     6,
		ContextSwitchCycles: 6000,
		TOFinalDegree:       3,
		RunaheadFaults:      2,
		Cycles:              123456,
		Instrs:              99,
		TLBL1Hits:           1, TLBL1Miss: 2, TLBL2Hits: 3, TLBL2Miss: 4,
		CacheL1Hit: 5, CacheL1Mis: 6, CacheL2Hit: 7, CacheL2Mis: 8,
	}
	s.RecordLifetime(400)
	s.RecordLifetime(600)
	s.RecordTODegree(2)
	s.RecordTODegree(4)

	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var got Stats
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, &got) {
		t.Fatalf("round trip changed stats:\n in: %+v\nout: %+v", s, &got)
	}
	// The lifetime and TO-degree accumulators feed the derived means.
	mean, ok := got.MeanLifetime()
	if !ok || mean != 500 {
		t.Fatalf("lifetime lost in round trip: mean=%v ok=%v", mean, ok)
	}
	toMean, ok := got.TOMeanDegree()
	if !ok || toMean != 3 {
		t.Fatalf("TO degree lost in round trip: mean=%v ok=%v", toMean, ok)
	}
}

func TestStatsJSONZeroValue(t *testing.T) {
	var s Stats
	data, err := json.Marshal(&s)
	if err != nil {
		t.Fatal(err)
	}
	var got Stats
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.NumBatches() != 0 || got.Cycles != 0 {
		t.Fatalf("zero value round trip: %+v", got)
	}
}
