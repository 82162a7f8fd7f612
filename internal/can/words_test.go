package can

// Differential tests for the table-driven CRC kernel (crc.go) and the
// stack-array frame builder (bits.go): each is pinned to its bit-serial
// reference in reference_test.go over seeded random bit strings and
// frames.

import (
	"math/rand"
	"testing"
)

// TestWordCRCDifferentialProperty pins the table-driven CRC kernel to the
// bit-serial reference: CRC15 over random bit strings of every length up
// to 256, and RawBits (header, data and CRC-15 field) over random classic
// frames.
func TestWordCRCDifferentialProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for n := 0; n <= 256; n++ {
		raw := make([]byte, n)
		for j := range raw {
			raw[j] = byte(rng.Intn(2))
		}
		if got, want := CRC15(raw), crc15Ref(raw); got != want {
			t.Fatalf("len %d: CRC15 = %#x, reference = %#x", n, got, want)
		}
	}
	for i := 0; i < 6000; i++ {
		f := randomWireFrame(rng)
		want := append(headerBits(f), dataBits(f)...)
		crc := crc15Ref(want)
		for b := 14; b >= 0; b-- {
			want = append(want, byte(crc>>uint(b)&1))
		}
		if got := RawBits(f); !bitsEqual(got, want) {
			t.Fatalf("frame %v: RawBits diverged from reference\n got %v\nwant %v", f, got, want)
		}
	}
}
