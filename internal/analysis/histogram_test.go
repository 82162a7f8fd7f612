package analysis

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/can"
)

func TestHistogramUniformInputPasses(t *testing.T) {
	var h ByteHistogram
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		h.Add(can.Frame{Len: 1, Data: [can.MaxDataLen]byte{byte(rng.Intn(256))}})
	}
	if !h.UniformP99() {
		t.Fatalf("uniform bytes failed the chi-square check: chi=%v", h.ChiSquare())
	}
	if e := h.Entropy(); e < 7.99 {
		t.Fatalf("entropy = %v, want ~8 bits", e)
	}
}

func TestHistogramStructuredInputFails(t *testing.T) {
	var h ByteHistogram
	for i := 0; i < 10000; i++ {
		h.Add(can.MustNew(0x43A, []byte{0x00, 0x00, 0x10, 0x20, 0xFF, 0xFF, 0xFF, 0xFF}))
	}
	if h.UniformP99() {
		t.Fatal("constant structured bytes passed the uniformity check")
	}
	if e := h.Entropy(); e > 3 {
		t.Fatalf("entropy = %v for a 5-symbol stream", e)
	}
}

func TestHistogramCountsAndTotal(t *testing.T) {
	var h ByteHistogram
	h.Add(can.MustNew(1, []byte{0xAA, 0xAA, 0xBB}))
	// Counts 2 and 1 of a total of 3 bytes: H = log2(3) - 2/3 bits.
	if e, want := h.Entropy(), math.Log2(3)-2.0/3; math.Abs(e-want) > 1e-12 {
		t.Fatalf("entropy = %v, want %v", e, want)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h ByteHistogram
	if h.ChiSquare() != 0 || h.Entropy() != 0 || h.UniformP99() {
		t.Fatal("empty histogram should report zeros and fail uniformity")
	}
}

func TestHistogramChiSquareNearDF(t *testing.T) {
	// For genuinely uniform data the statistic concentrates near 255.
	var h ByteHistogram
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1_000_000; i++ {
		h.Add(can.Frame{Len: 1, Data: [can.MaxDataLen]byte{byte(rng.Intn(256))}})
	}
	chi := h.ChiSquare()
	if chi < 150 || chi > 400 {
		t.Fatalf("chi-square = %v, implausibly far from 255", chi)
	}
}
