package core

import "math/rand/v2"

// The fuzzers draw from math/rand/v2 PCGs seeded by faults.SeedPCG: the
// Table III space needs uniform draws, not any particular stream.

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
