// Package guided implements coverage-guided fuzzing on top of the core
// campaign: a feedback signal distilled from what the virtual world already
// exposes (responses on the bus, ECU state probes, error-counter movement),
// a bounded novelty map recording which behaviours have been seen, an
// evolving corpus of frames that provoked something new, and a minimizer
// that shrinks a finding's trigger window to a minimal reproducer.
//
// The paper's fuzzer is blind: §V concedes that value coverage of the CAN
// space is combinatorially hopeless and falls back to hand-seeded targeted
// fuzzing. Werquin et al. ("Automated Fuzzing of Automotive Control
// Units") close the loop instead — mutation parents are chosen by how the
// ECUs *responded* — and find the same fault classes orders of magnitude
// faster. This package reproduces that idea inside the deterministic
// simulation: every decision is driven by a splitmix64-derived RNG stream,
// so a guided campaign is bit-for-bit replayable from its seed, fleet
// trials shard cleanly, and corpora merge deterministically.
package guided

import (
	"math/bits"

	"repro/internal/faults"
)

// mapBits is the novelty-map size in bits: 64 Ki entries (8 KiB), the
// AFL-style compromise between collision rate and cache footprint. The map
// is bounded by construction — features hash into it, they never grow it.
const mapBits = 1 << 16

// noveltyMap is a fixed-size bitmap over feature hashes.
type noveltyMap struct {
	bits [mapBits / 64]uint64
}

// observe sets the feature's bit and reports whether it was newly set.
func (n *noveltyMap) observe(feature uint64) bool {
	idx := feature % mapBits
	word, mask := idx/64, uint64(1)<<(idx%64)
	if n.bits[word]&mask != 0 {
		return false
	}
	n.bits[word] |= mask
	return true
}

// count returns the number of set bits (distinct behaviours seen).
func (n *noveltyMap) count() int {
	total := 0
	for _, w := range n.bits {
		total += bits.OnesCount64(w)
	}
	return total
}

// Feature kinds, mixed into the hash so the same raw values from different
// signal classes land on different bits. Each is stored pre-mixed: the
// constant first splitmix64 step of hashFeature is taken once here, so a
// feature hash costs two mixes rather than three.
var (
	featResponse = faults.SplitMix64(0x52455350) // "RESP": (responder id, dlc) pair seen on the bus
	featProbe    = faults.SplitMix64(0x50524F42) // "PROB": ECU state probe moved to a new bucket
)

// hashFeature composes a feature hash from a pre-mixed kind and two parts
// with the same splitmix64 mixer the seed derivation uses: fold each part
// in, mix, so (kind, a, b) and (kind, b, a) land on unrelated bits. The
// arity is fixed — every feature is a (kind, a, b) triple — so the
// per-frame Observe path never builds a variadic argument slice.
func hashFeature(kind, a, b uint64) uint64 {
	h := faults.SplitMix64(kind ^ a)
	return faults.SplitMix64(h ^ b)
}

// hashName hashes a probe name (FNV-1a, then mixed); probe features are
// keyed by name rather than registration index so the feature space does
// not depend on probe registration order.
func hashName(name string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime
	}
	return faults.SplitMix64(h)
}

// bucketize maps a probe value onto AFL-style hit-count buckets
// (0,1,2,3,4-7,8-15,16-31,32-127,128+): small state values stay distinct,
// unbounded counters saturate, so a counter that keeps incrementing stops
// being "novel" after a few orders of magnitude.
func bucketize(v uint64) uint64 {
	switch {
	case v <= 3:
		return v
	case v < 8:
		return 4
	case v < 16:
		return 5
	case v < 32:
		return 6
	case v < 128:
		return 7
	default:
		return 8
	}
}
