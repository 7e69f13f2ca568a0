package sim

import "math"

// Rand is a small, fast, deterministic PRNG (splitmix64 core). Every
// stochastic element in the simulation draws from a seeded Rand so that runs
// are exactly reproducible; the control and adaptive experiment runs share
// seeds, mirroring the paper's "seeding the clients so that the size of
// requests and responses occurred in the same sequence in both experiments".
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed.
func NewRand(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Fork derives an independent child stream; the child's sequence is a pure
// function of the parent seed and the label, so adding new consumers does not
// perturb existing streams.
func (r *Rand) Fork(label string) *Rand {
	h := r.state ^ 0x9e3779b97f4a7c15
	for _, c := range label {
		h ^= uint64(c)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	return NewRand(h)
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		// Invariant: every caller's bound is a positive constant or one it
		// has just checked (a non-empty collection; GenerateGrid's chords,
		// drawn only with 4 or more routers). There is no value to return.
		panic("sim: Intn with non-positive bound")
	}
	return int(r.Uint64() % uint64(n))
}

// Exp returns an exponentially distributed value with the given mean.
// Exponential inter-arrival times give the Poisson arrivals assumed by the
// paper's queuing analysis ("average arrival rate ... approximately six per
// second").
func (r *Rand) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Normal returns a normally distributed value (Box–Muller).
func (r *Rand) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + float64(stddev*z)
}

// LogNormalAround returns a positive value whose median is m, with mild
// spread; used for request/response size jitter around the paper's averages
// (0.5 KB requests, 20 KB replies).
func (r *Rand) LogNormalAround(m, sigma float64) float64 {
	return m * math.Exp(r.Normal(0, sigma))
}
