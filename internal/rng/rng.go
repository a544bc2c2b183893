// Package rng provides small, fast, deterministic pseudo-random number
// generators for the training pipeline.
//
// Each SGD worker owns a private stream seeded from a splitmix64 expansion of
// a base seed, so parallel runs are reproducible per worker and never share
// generator state (sharing math/rand's global source would serialize workers
// on its internal lock, perturbing exactly the contention behaviour the
// experiments measure).
package rng

import "math"

// splitmix64 advances the state and returns the next value of the splitmix64
// sequence. It is the recommended seeder for xoshiro-family generators.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a xoshiro256** generator. The zero value is invalid; construct
// with New or NewStream.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via splitmix64.
func New(seed uint64) *Rand {
	r := &Rand{}
	st := seed
	for i := range r.s {
		r.s[i] = splitmix64(&st)
	}
	// xoshiro must not start at the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// NewStream returns the generator for stream index i derived from base seed
// seed. Distinct (seed, i) pairs give independent-looking streams.
func NewStream(seed uint64, i int) *Rand {
	return New(seed ^ (0x6a09e667f3bcc909 * (uint64(i) + 1)))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method.
	un := uint64(n)
	v := r.Uint64()
	hi, lo := mul64(v, un)
	if lo < un {
		threshold := -un % un
		for lo < threshold {
			v = r.Uint64()
			hi, lo = mul64(v, un)
		}
	}
	_ = lo
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	lo = a * b
	hi = aHi*bHi + (t >> 32) + ((t&mask32 + aLo*bHi) >> 32)
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate using the Marsaglia polar
// method (no trig, branch-light; good enough for weight init and noise).
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// SkipNorm advances r exactly as n NormFloat64 calls would, without
// computing the variates: the polar method's accept test needs neither the
// log nor the square root. A caller that knows how many normals a span of
// the stream consumes can thus find where the next span starts cheaply.
// The loop repeats NormFloat64's draws and test (a shared helper that the
// compiler does not inline cost the generator 8–10%);
// TestSkipNormMatchesNormFloat64 holds the two together.
func (r *Rand) SkipNorm(n int) {
	for ; n > 0; n-- {
		for {
			u := 2*r.Float64() - 1
			v := 2*r.Float64() - 1
			if s := u*u + v*v; s > 0 && s < 1 {
				break
			}
		}
	}
}

// Perm fills dst with a random permutation of [0, len(dst)) using
// Fisher-Yates.
func (r *Rand) Perm(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	for i := len(dst) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
}
