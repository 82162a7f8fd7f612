package faults

import "math/rand/v2"

// Seed derivation. Fault plans, and now fleet campaigns, need families of
// statistically independent RNG streams that are (a) reproducible from one
// base seed and (b) stable under composition: adding stream i+1 must not
// perturb stream i, and nearby base seeds must not produce correlated
// streams. SplitMix64 (Steele et al., "Fast Splittable Pseudorandom Number
// Generators" — the same finalising mixer Go's runtime uses) gives both:
// it is a bijective avalanche hash, so consecutive inputs map to
// decorrelated outputs.

// SplitMix64 applies the splitmix64 finalising mix to x.
func SplitMix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// DeriveSeed returns stream i of the base seed's seed family:
// SplitMix64(base XOR SplitMix64(i+1)), reinterpreted as int64. It is the
// derivation the injector uses for per-spec fault streams and the fleet
// uses for per-trial campaign seeds; i and base are mixed independently so
// neither sequential trial indices nor sequential base seeds yield
// correlated streams.
func DeriveSeed(base int64, i int) int64 {
	return int64(SplitMix64(uint64(base) ^ SplitMix64(uint64(i)+1)))
}

// SeedPCG restarts pcg's stream from seed and returns pcg. Every
// simulation stream is a math/rand/v2 PCG seeded here; the second state
// word is the SplitMix64 of the first, so nearby seeds give unrelated
// streams, and a warm reset reseeds in place without allocating.
func SeedPCG(pcg *rand.PCG, seed int64) *rand.PCG {
	pcg.Seed(uint64(seed), SplitMix64(uint64(seed)))
	return pcg
}
