// Package rng provides a deterministic, splittable pseudo-random number
// generator for reproducible stochastic ocean simulations and ensemble
// perturbations.
//
// The core generator is xoshiro256**, seeded through SplitMix64. Streams
// are splittable: Split derives a statistically independent child stream,
// which lets each ensemble member, each grid forcing field and each
// simulated cluster component own its own generator while the whole run
// stays bit-reproducible under a fixed master seed.
//
// Generators are NOT safe for concurrent use; give each goroutine its own
// stream via Split.
package rng

import (
	"math"
	"math/bits"
)

// Stream is a deterministic random number stream.
type Stream struct {
	s [4]uint64
	// cached spare Gaussian variate for the polar method
	hasSpare bool
	spare    float64
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used only for seeding and splitting.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a stream seeded from the given master seed.
func New(seed uint64) *Stream {
	st := seed
	var s Stream
	for i := range s.s {
		s.s[i] = splitMix64(&st)
	}
	// xoshiro must not start from the all-zero state.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 0x1badc0de
	}
	return &s
}

// Split derives an independent child stream keyed by id. The parent is
// not advanced, so Split(i) is a pure function of (parent state, id):
// calling it repeatedly with the same id yields identical children.
func (s *Stream) Split(id uint64) *Stream {
	st := s.s[0] ^ bits.RotateLeft64(s.s[1], 17) ^ (id * 0xd1342543de82ef95)
	var c Stream
	for i := range c.s {
		c.s[i] = splitMix64(&st)
	}
	if c.s[0]|c.s[1]|c.s[2]|c.s[3] == 0 {
		c.s[0] = 0x5eed5eed
	}
	return &c
}

// Uint64 returns the next 64 uniformly distributed bits (xoshiro256**).
func (s *Stream) Uint64() uint64 {
	result := bits.RotateLeft64(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = bits.RotateLeft64(s.s[3], 45)
	return result
}

// Float64 returns a uniform variate in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	un := uint64(n)
	x := s.Uint64()
	hi, lo := bits.Mul64(x, un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			x = s.Uint64()
			hi, lo = bits.Mul64(x, un)
		}
	}
	return int(hi)
}

// Norm returns a standard normal variate (Marsaglia polar method).
func (s *Stream) Norm() float64 {
	if s.hasSpare {
		s.hasSpare = false
		return s.spare
	}
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q == 0 || q >= 1 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(q) / q)
		s.spare = v * f
		s.hasSpare = true
		return u * f
	}
}

// NormVec fills dst with independent standard normal variates and
// returns it. If dst is nil a new slice of length n is allocated.
func (s *Stream) NormVec(dst []float64, n int) []float64 {
	if dst == nil {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = s.Norm()
	}
	return dst
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool {
	return s.Float64() < p
}
