package sim

import "testing"

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
}

func TestRandDistinctSeeds(t *testing.T) {
	a, b := NewRand(1), NewRand(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("distinct-seed generators agreed %d/1000 times", same)
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestRandIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(99)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
		sum += v
	}
	mean := sum / n
	if mean < 0.49 || mean > 0.51 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestRandUint64Bits(t *testing.T) {
	// Every bit position should flip at least once over a modest sample;
	// a stuck bit would indicate a broken shift constant.
	r := NewRand(3)
	var ones, zeros uint64
	for i := 0; i < 1000; i++ {
		v := r.Uint64()
		ones |= v
		zeros |= ^v
	}
	if ones != ^uint64(0) {
		t.Fatalf("bits never set: %064b", ^ones)
	}
	if zeros != ^uint64(0) {
		t.Fatalf("bits never clear: %064b", ^zeros)
	}
}
