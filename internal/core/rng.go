package core

import (
	"math/rand/v2"

	"repro/internal/faults"
)

// The fuzzers draw from math/rand/v2's PCG. What the paper's generator
// needs is a uniform distribution over the Table III space, not any
// particular stream, and PCG reseeds in place in a few nanoseconds with
// no allocation — every world reset under a fresh trial seed pays that
// and nothing more. A cold build and a reset run the same seeding.

// newRNG returns a PCG seeded from seed and a rand.Rand drawing from it.
func newRNG(seed int64) (*rand.PCG, *rand.Rand) {
	pcg := new(rand.PCG)
	seedRNG(pcg, seed)
	return pcg, rand.New(pcg)
}

// seedRNG restarts pcg's stream from seed. The second state word is the
// SplitMix64 of the first, so nearby seeds give unrelated streams.
func seedRNG(pcg *rand.PCG, seed int64) {
	pcg.Seed(uint64(seed), faults.SplitMix64(uint64(seed)))
}

// fillUniform fills b with uniform random bytes, eight per 64-bit draw.
func fillUniform(pcg *rand.PCG, b []byte) {
	var w uint64
	for i := range b {
		if i%8 == 0 {
			w = pcg.Uint64()
		}
		b[i] = byte(w)
		w >>= 8
	}
}
