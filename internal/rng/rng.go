// Package rng provides a small, deterministic, seedable pseudo-random
// number generator used by every simulation in this repository.
//
// All randomness in the library flows through explicit *rng.Source values
// created from caller-supplied seeds, so simulations, tests and benchmarks
// are reproducible bit-for-bit across runs and Go versions. The generator
// is xoshiro256** seeded through splitmix64, which has excellent
// statistical quality for simulation workloads and is far faster than
// cryptographic generators (covert channel simulation is not adversarial
// randomness; determinism and speed are what matter here).
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic pseudo-random number generator.
// It is not safe for concurrent use; create one Source per goroutine.
type Source struct {
	s state
}

// state is xoshiro256**'s four state words, in fields so that a local
// copy lives in registers.
type state struct {
	s0, s1, s2, s3 uint64
}

// New returns a Source seeded from the given seed. Distinct seeds yield
// statistically independent streams.
func New(seed uint64) *Source {
	// splitmix64 expansion of the seed into the 256-bit state, as
	// recommended by the xoshiro authors. Guarantees a nonzero state.
	var w [4]uint64
	x := seed
	for i := range w {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		w[i] = z ^ (z >> 31)
	}
	return &Source{s: state{w[0], w[1], w[2], w[3]}}
}

// Uint64 returns the next value in the stream.
//
// The step works on a copy of the state words and stores them back
// once: that keeps its inline cost under gc's budget, so hot loops draw
// without a call (TestUint64Inlines pins it).
func (r *Source) Uint64() uint64 {
	v, s := r.s.step()
	r.s = s
	return v
}

// step is one xoshiro256** step: the output for state s and the state
// after it.
func (s state) step() (uint64, state) {
	v := bits.RotateLeft64(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = bits.RotateLeft64(s.s3, 45)
	return v, s
}

// BoolMask draws n words and returns a mask whose bit i is set exactly
// when Uint64()>>11 < thr on the i-th of n successive Uint64 calls, and
// leaves the source where those n calls leave it. With
// thr = ProbThreshold(p) for p in (0, 1), bit i is therefore Bool(p) on
// the same draw: one call stands for n Bool coins. The state stays in
// registers for the whole loop and each bit is set without a branch:
// v>>11 is below 2^53 and thr at most 2^53, so the top bit of
// v>>11 - thr is the comparison. It panics unless 0 <= n <= 64.
func (r *Source) BoolMask(n int, thr uint64) uint64 {
	if n < 0 || n > 64 {
		panic("rng: BoolMask width out of range [0,64]")
	}
	s := r.s
	var mask uint64
	for i := 0; i < n; i++ {
		var v uint64
		v, s = s.step()
		// Each bit enters at the top and moves down one place per
		// later draw, so the i-th ends at bit 64-n+i (at n = 0 the
		// final shift is by 64, which gives 0).
		mask = mask>>1 | (v>>11-thr)&(1<<63)
	}
	r.s = s
	return mask >> (64 - uint(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *Source) Float64() float64 {
	// 53 high-quality bits into the mantissa.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n) using Lemire's unbiased
// multiply-shift rejection method. It panics if n == 0.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Bool returns true with probability p. Values of p outside [0, 1] are
// clamped to that range.
func (r *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// ProbThreshold maps a probability to the integer threshold T such that
// for m = Uint64()>>11 (the 53-bit draw behind Float64),
// m < T  ⟺  Float64() < p, exactly: Float64() < p ⟺ m < p·2^53, and
// since p·2^53 is an exact float (scaling by a power of two) and m an
// integer, that is m < ceil(p·2^53). For p in (0, 1), Bool(p) is
// therefore Uint64()>>11 < ProbThreshold(p) on the same single draw;
// hot loops compare integers and skip the int→float conversion and
// divide. Bool draws nothing at p <= 0 or p >= 1, so callers that must
// stay in step with it skip the draw there too.
func ProbThreshold(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// Bit returns a uniform bit (0 or 1).
func (r *Source) Bit() byte {
	return byte(r.Uint64() >> 63)
}

// Symbol returns a uniform n-bit symbol in [0, 2^n). It panics unless
// 1 <= n <= 32.
func (r *Source) Symbol(n int) uint32 {
	if n < 1 || n > 32 {
		panic("rng: Symbol bit width out of range [1,32]")
	}
	return uint32(r.Uint64() >> (64 - uint(n)))
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Split returns a new Source whose stream is independent of r's future
// output. It consumes one value from r.
func (r *Source) Split() *Source {
	return New(r.Uint64())
}

// mix64 is the splitmix64 output function: a full-avalanche 64-bit
// mixer, the same finalizer New uses to expand seeds into state.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stream derives the i-th sub-seed of seed: element i of the splitmix64
// sequence keyed by seed. Distinct (seed, i) pairs yield decorrelated
// sub-seeds, so independent components (e.g. experiments run by a
// parallel harness) can each draw from their own stream while remaining
// a pure function of the master seed — results do not depend on
// scheduling or execution order. The result is never 0, so callers that
// treat a zero seed as "unset" cannot be confused by a derived seed.
func Stream(seed, i uint64) uint64 {
	const golden = 0x9e3779b97f4a7c15
	base := mix64(seed + golden)
	s := mix64(base + (i+1)*golden)
	if s == 0 {
		s = golden
	}
	return s
}

// NewStream returns New(Stream(seed, i)): a Source positioned on the
// i-th independent sub-stream of the master seed.
func NewStream(seed, i uint64) *Source {
	return New(Stream(seed, i))
}

// NormFloat64 returns a standard normal value via the Box–Muller
// transform (one value per call; the second is discarded for
// simplicity — throughput is not a concern at simulation scales).
func (r *Source) NormFloat64() float64 {
	u := 1 - r.Float64() // in (0, 1]
	v := r.Float64()
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
}
