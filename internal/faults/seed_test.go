package faults

import (
	"math/rand/v2"
	"testing"
)

// TestSplitMix64Pinned pins the mixer against the reference stream of
// Steele et al.'s splitmix64 (SplitMix64(0) is the well-known first output
// 0xE220A8397B1DCDAF). These constants are load-bearing: fleet trial seeds
// and fault-plan streams are derived from them, so changing the mixer
// silently changes every "reproducible" result in the repo.
func TestSplitMix64Pinned(t *testing.T) {
	cases := []struct {
		in, want uint64
	}{
		{0, 0xe220a8397b1dcdaf},
		{1, 0x910a2dec89025cc1},
		{2, 0x975835de1c9756ce},
		{0x9e3779b97f4a7c15, 0x6e789e6aa1b965f4},
		{^uint64(0), 0xe4d971771b652c20},
	}
	for _, c := range cases {
		if got := SplitMix64(c.in); got != c.want {
			t.Errorf("SplitMix64(%#x) = %#x, want %#x", c.in, got, c.want)
		}
	}
}

// TestDeriveSeedPinned pins the per-stream seed family.
func TestDeriveSeedPinned(t *testing.T) {
	cases := []struct {
		base int64
		i    int
		want int64
	}{
		{0, 0, 6791897765849424158},
		{1, 0, -1586005623519383010},
		{1, 1, -2274933249722822011},
		{1, 2, -1419658703116693069},
		{42, 7, -3960308633437393799},
		{-1, 3, 8962554365876074115},
	}
	for _, c := range cases {
		if got := DeriveSeed(c.base, c.i); got != c.want {
			t.Errorf("DeriveSeed(%d, %d) = %d, want %d", c.base, c.i, got, c.want)
		}
	}
}

// TestDeriveSeedIndependence checks the decorrelation properties the
// derivation exists for: distinct (base, i) pairs in a dense neighbourhood
// collide on neither seeds nor low bits.
func TestDeriveSeedIndependence(t *testing.T) {
	seen := make(map[int64]bool)
	for base := int64(0); base < 16; base++ {
		for i := 0; i < 64; i++ {
			s := DeriveSeed(base, i)
			if seen[s] {
				t.Fatalf("seed collision at base=%d i=%d: %d", base, i, s)
			}
			seen[s] = true
		}
	}
}

// TestSeedPCGPinned pins the first draws of the seeding helper. Every
// simulation stream (the fuzzers, the guided engine, each wire-fault spec)
// is a PCG seeded by SeedPCG, so a change to the helper or to the
// generator silently changes every reproducible result; this fails loudly
// instead. One PCG is reseeded in place across the cases, twice each, so
// the stream depends on the seed alone, not on what was drawn before.
func TestSeedPCGPinned(t *testing.T) {
	cases := []struct {
		seed int64
		want [4]uint64
	}{
		{0, [4]uint64{0x32477c14ef17da7d, 0xe351625854218bb2, 0x313dffcfda8c38d5, 0x5d072a420a188236}},
		{9, [4]uint64{0x88e8598bffb42c98, 0x87414b10f2203635, 0xe461cd88cd9fa00d, 0xec943eca3e38a9cf}},
		{-1, [4]uint64{0x5f5203e9813ece1c, 0x88168c95b412d688, 0xf0359c48dd96fa2e, 0xbb31c8f1161ae2a0}},
	}
	var pcg rand.PCG
	for pass := 0; pass < 2; pass++ {
		for _, c := range cases {
			if SeedPCG(&pcg, c.seed) != &pcg {
				t.Fatal("SeedPCG did not return its argument")
			}
			for k, want := range c.want {
				if got := pcg.Uint64(); got != want {
					t.Fatalf("pass %d seed %d draw %d = %#x, want %#x", pass, c.seed, k, got, want)
				}
			}
		}
	}
}
