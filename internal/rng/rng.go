// Package rng provides a deterministic, splittable pseudo-random number
// generator used by every stochastic component of the simulator.
//
// Reproducibility is a hard requirement of the determinism contract: a whole
// distributed execution (graph generation, short-walk lengths, stitching
// choices, ...) must be replayable from a single master seed. The standard
// library's math/rand is seedable but offers no principled way to derive
// many independent streams, so we implement xoshiro256** seeded through
// splitmix64, the construction recommended by its authors for exactly this
// purpose. Independent streams are derived with Stream, which hashes the
// stream index into the seed material so that streams are statistically
// independent regardless of how many are created. The simulated protocols
// keep no stream: each of their draws is Mix64 of a key naming what it
// decides (see internal/core).
package rng

import "math/bits"

// RNG is a xoshiro256** generator. It is not safe for concurrent use; derive
// one stream per goroutine with Stream or Split.
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded from seed via splitmix64. Any seed value,
// including zero, yields a well-mixed internal state.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm, r.s[i] = splitmix64(sm)
	}
	return r
}

// Stream derives an independent generator identified by id from r's original
// seed material. Calling Stream with the same id twice yields generators
// that produce identical sequences; distinct ids yield independent
// sequences. Stream does not advance r.
func (r *RNG) Stream(id uint64) *RNG {
	d := &RNG{}
	// Mix the stream id into each state word with distinct odd constants so
	// that streams differ in every word even for adjacent ids.
	sm := r.s[0] ^ (id * 0x9e3779b97f4a7c15)
	for i := range d.s {
		sm, d.s[i] = splitmix64(sm ^ r.s[i])
	}
	return d
}

// Split returns a new independent generator derived from r's current state,
// advancing r. Useful when a single sequential seed must fork.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0xd1342543de82ef95)
}

// Uint64 returns the next value of the stream.
func (r *RNG) Uint64() uint64 {
	result := bits.RotateLeft64(r.s[1]*5, 7) * 9

	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = bits.RotateLeft64(r.s[3], 45)

	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0, mirroring
// math/rand; callers in this module always pass positive bounds.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n) using Lemire's unbiased
// multiply-shift rejection method. It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with zero n")
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

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a fair coin flip.
func (r *RNG) Bool() bool {
	return r.Uint64()&1 == 1
}

// Perm returns a uniform random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle applies a Fisher-Yates shuffle over n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// splitmix64 advances the splitmix64 state and returns (newState, output).
func splitmix64(state uint64) (uint64, uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

// Mix64 applies the splitmix64 finalizer to x: a cheap, well-distributed
// 64-bit mixer. The flat open-addressed tables of the protocol layer
// (internal/core's shelves, pathverify's send-dedup sets) use it for
// probe starts, so the magic constants live here, next to the generator
// built from the same function.
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
