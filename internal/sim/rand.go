package sim

// Rand is a small, fast, deterministic pseudo-random number generator
// (splitmix64 seeding an xorshift128+ state). Simulation results must be
// reproducible across Go releases, so the models use this generator rather
// than math/rand.
type Rand struct {
	s0, s1 uint64
}

// splitmix64 advances a seed and returns the next output. It is used only
// to expand the user seed into the xorshift state.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRand returns a generator seeded from seed. Distinct seeds yield
// uncorrelated streams; the same seed always yields the same stream.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state from seed.
func (r *Rand) Seed(seed uint64) {
	s := seed
	r.s0 = splitmix64(&s)
	r.s1 = splitmix64(&s)
	if r.s0 == 0 && r.s1 == 0 { // xorshift state must be nonzero
		r.s0 = 1
	}
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Rand) Uint64() uint64 {
	x, y := r.s0, r.s1
	r.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	r.s1 = x
	return x + y
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}
