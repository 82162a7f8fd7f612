package can

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// Micro-benchmarks for the hot-path codec functions; cmd/benchperf mirrors
// these workloads when emitting the BENCH_*.json trajectory.

func BenchmarkStuff(b *testing.B) {
	bits := RawBits(MustNew(0x215, []byte{0x20, 0x5F, 1, 0, 0, 1, 0x20}))
	dst := make([]byte, 0, len(bits)+len(bits)/5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = AppendStuff(dst[:0], bits)
	}
}

func BenchmarkAppendEncodeBits(b *testing.B) {
	f := MustNew(0x215, []byte{0x20, 0x5F, 1, 0, 0, 1, 0x20})
	dst := make([]byte, 0, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = AppendEncodeBits(dst[:0], f)
	}
}

// randomWireFrame draws one valid frame: random in-range identifier,
// random DLC, random payload, and — unlike randomFrame in frame_test.go —
// the occasional remote frame.
func randomWireFrame(rng *rand.Rand) Frame {
	var f Frame
	f.ID = ID(rng.Intn(MaxID + 1))
	f.Len = uint8(rng.Intn(MaxDataLen + 1))
	if rng.Intn(10) == 0 {
		f.Remote = true
		return f
	}
	for i := 0; i < int(f.Len); i++ {
		f.Data[i] = byte(rng.Intn(256))
	}
	return f
}

// randomFDWireFrame draws one valid FD frame: random identifier, a random
// representable DLC size, random payload and bit-rate switch.
func randomFDWireFrame(rng *rand.Rand) FDFrame {
	var f FDFrame
	f.ID = ID(rng.Intn(MaxID + 1))
	f.Len = uint8(fdLengths[rng.Intn(len(fdLengths))])
	for i := 0; i < int(f.Len); i++ {
		f.Data[i] = byte(rng.Intn(256))
	}
	f.BRS = rng.Intn(2) == 0
	return f
}

// bitsEqual compares two bit slices, treating nil and empty as equal.
func bitsEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWireBitsStuffRelationProperty pins the defining relation of the
// zero-alloc wire-length fast path: for every frame, WireBits must equal
// the length of the slice-building Stuff(RawBits()) construction plus the
// fixed-form trailer.
func TestWireBitsStuffRelationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		f := randomWireFrame(rng)
		want := len(Stuff(RawBits(f))) + trailerBits
		if got := WireBits(f); got != want {
			t.Fatalf("frame %d (%v): WireBits = %d, want len(Stuff(RawBits))+trailer = %d",
				i, f, got, want)
		}
	}
}

// TestAppendFastPathsDifferentialProperty asserts every AppendX fast path
// is byte-identical to its slice-building original over a seeded sample of
// the frame space, including when appending after a non-empty prefix.
func TestAppendFastPathsDifferentialProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	prefix := []byte{1, 0, 1}
	for i := 0; i < 1000; i++ {
		f := randomWireFrame(rng)

		raw := RawBits(f)
		stuffed := Stuff(raw)
		if got := AppendStuff(nil, raw); !bitsEqual(got, stuffed) {
			t.Fatalf("frame %d (%v): AppendStuff != Stuff\n got %v\nwant %v", i, f, got, stuffed)
		}
		if got := AppendStuff(prefix, raw); !bitsEqual(got[:3], prefix) || !bitsEqual(got[3:], stuffed) {
			t.Fatalf("frame %d (%v): AppendStuff with prefix diverged", i, f)
		}

		if got := AppendEncodeBits(nil, f); !bitsEqual(got, stuffed) {
			t.Fatalf("frame %d (%v): AppendEncodeBits != Stuff(RawBits)\n got %v\nwant %v", i, f, got, stuffed)
		}
		if got := AppendEncodeBits(prefix, f); !bitsEqual(got[:3], prefix) || !bitsEqual(got[3:], stuffed) {
			t.Fatalf("frame %d (%v): AppendEncodeBits with prefix diverged", i, f)
		}
	}
}

// TestFDFastPathsDifferentialProperty asserts the word-level FD dynamic
// stuff count equals len(Stuff(region)) - len(region) for the slice-built
// stuff region, over random FD frames and maximum-length payloads of
// stuffing-heavy fill.
func TestFDFastPathsDifferentialProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	check := func(f FDFrame) {
		t.Helper()
		region := fdStuffRegionBits(f)
		want := len(Stuff(region)) - len(region)
		if got := fdDynamicStuffEstimate(f); got != want {
			t.Fatalf("frame %v: dynamic stuff estimate = %d, want %d", f, got, want)
		}
	}
	for i := 0; i < 6000; i++ {
		check(randomFDWireFrame(rng))
	}
	for _, fill := range pathologicalFills {
		check(MustNewFD(0x7FF, bytes.Repeat([]byte{fill}, MaxFDDataLen), true))
	}
}

// pathologicalFills are payload bytes that stress stuffing: all-equal
// bits, alternating bits, and runs of five across byte boundaries.
var pathologicalFills = []byte{0x00, 0xFF, 0xAA, 0x55, 0x1F, 0xF8}

// adversarialBits builds a bit string dominated by runs of 1..8 equal
// bits — the stuffing-heavy shapes where off-by-one run-carry bugs would
// hide.
func adversarialBits(rng *rand.Rand, n int) []byte {
	out := make([]byte, 0, n)
	b := byte(rng.Intn(2))
	for len(out) < n {
		run := 1 + rng.Intn(8)
		if run > n-len(out) {
			run = n - len(out)
		}
		for i := 0; i < run; i++ {
			out = append(out, b)
		}
		if rng.Intn(6) > 0 {
			b ^= 1
		}
	}
	return out
}

// hasSixEqualBits reports whether bits holds six equal bits in a row.
func hasSixEqualBits(bits []byte) bool {
	run, last := 0, byte(2)
	for _, b := range bits {
		if b == last {
			run++
		} else {
			run, last = 1, b
		}
		if run >= 6 {
			return true
		}
	}
	return false
}

// TestStuffUnstuffRoundTripProperty checks that Stuff never emits six
// equal bits and that Unstuff(Stuff(bits)) == bits, for real classic frame
// encodings, FD stuff regions, run-heavy bit strings of every length up to
// 600, all-equal runs up to 2055 bits, worst-case stuffing and
// maximum-length payloads of stuffing-heavy fill. It also inserts six
// equal bits at every offset of a stuffed stream and requires Unstuff to
// reject the result.
func TestStuffUnstuffRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	check := func(label string, bits []byte) {
		t.Helper()
		stuffed := Stuff(bits)
		if hasSixEqualBits(stuffed) {
			t.Fatalf("%s: Stuff emitted six equal bits: %v", label, stuffed)
		}
		back, err := Unstuff(stuffed)
		if err != nil {
			t.Fatalf("%s: unstuff: %v", label, err)
		}
		if !bitsEqual(back, bits) {
			t.Fatalf("%s: round trip\n got %v\nwant %v", label, back, bits)
		}
	}
	for i := 0; i < 1000; i++ {
		check("frame", RawBits(randomFrame(rng)))
		check("FD region", fdStuffRegionBits(randomFDWireFrame(rng)))

		n := rng.Intn(128)
		bits := make([]byte, n)
		for j := range bits {
			if rng.Intn(4) > 0 && j > 0 {
				bits[j] = bits[j-1] // bias toward runs that force stuffing
			} else {
				bits[j] = byte(rng.Intn(2))
			}
		}
		check("biased", bits)
	}
	for n := 0; n <= 600; n++ {
		check("adversarial", adversarialBits(rng, n))
	}
	for _, n := range []int{1, 4, 5, 6, 9, 10, 11, 64, 1024, 2055} {
		check("all-zero run", make([]byte, n))
		check("all-one run", bytes.Repeat([]byte{1}, n))
	}
	// Worst-case stuffing: alternating blocks of four equal bits after an
	// initial five — every stuff bit lands flush against the next run.
	worst := []byte{0, 0, 0, 0, 0}
	for len(worst) < 512 {
		b := worst[len(worst)-1] ^ 1
		worst = append(worst, b, b, b, b)
	}
	check("worst-case stuffing", worst)
	for _, fill := range pathologicalFills {
		check("max-DLC classic", RawBits(MustNew(0x7FF, bytes.Repeat([]byte{fill}, MaxDataLen))))
		fd := MustNewFD(0x7FF, bytes.Repeat([]byte{fill}, MaxFDDataLen), true)
		check("max-DLC FD", fdStuffRegionBits(fd))
	}
	valid := Stuff(adversarialBits(rng, 200))
	for off := 0; off <= len(valid); off++ {
		for _, b := range []byte{0, 1} {
			src := append(append(append([]byte(nil), valid[:off]...), b, b, b, b, b, b), valid[off:]...)
			if _, err := Unstuff(src); !errors.Is(err, ErrStuffViolation) {
				t.Fatalf("six %d bits at offset %d: err = %v, want ErrStuffViolation", b, off, err)
			}
		}
	}
}

// TestUnstuffViolationExhaustive runs Unstuff on every bit string of 0 to
// 16 bits. It must return ErrStuffViolation exactly when the input holds
// six equal bits in a row; otherwise restuffing its output must give back
// the input, plus at most the one stuff bit still owed by an input that
// ends on a run of five.
func TestUnstuffViolationExhaustive(t *testing.T) {
	in := make([]byte, 0, 16)
	for n := 0; n <= 16; n++ {
		for v := 0; v < 1<<n; v++ {
			in = in[:0]
			for i := n - 1; i >= 0; i-- {
				in = append(in, byte(v>>uint(i)&1))
			}
			out, err := Unstuff(in)
			six := hasSixEqualBits(in)
			if six != errors.Is(err, ErrStuffViolation) || (!six && err != nil) {
				t.Fatalf("Unstuff(%v): err = %v, six equal bits = %v", in, err, six)
			}
			if six {
				continue
			}
			if re := Stuff(out); len(re) > n+1 || len(re) < n || !bitsEqual(re[:n], in) {
				t.Fatalf("Unstuff(%v) = %v, restuffs to %v", in, out, re)
			}
		}
	}
}
