package tensor

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (splitmix64). Experiments are reproducible given a seed, and each worker
// can derive an independent stream with Split.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform value in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: RNG.Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float32 returns a uniform value in [0, 1).
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) / (1 << 24)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat32 returns a standard normal sample via Box–Muller.
func (r *RNG) NormFloat32() float32 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return float32(math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2))
}

// State returns the generator's current position in its stream, so a
// checkpointed training run can resume drawing exactly where it left off.
func (r *RNG) State() uint64 { return r.state }

// SetState repositions the generator at a state captured with State.
func (r *RNG) SetState(s uint64) { r.state = s }

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// RandN fills a new tensor of the given shape with N(0, std²) samples.
func RandN(rng *RNG, std float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = rng.NormFloat32() * std
	}
	return t
}

// RandUniform fills a new tensor with uniform samples in [lo, hi).
func RandUniform(rng *RNG, lo, hi float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = lo + (hi-lo)*rng.Float32()
	}
	return t
}
