package can

import (
	"errors"
	"math/rand"
	"testing"
)

func TestHeaderBitsLength(t *testing.T) {
	f := MustNew(0x43A, []byte{1, 2, 3})
	if got := len(headerBits(f)); got != 19 {
		t.Fatalf("header bits = %d, want 19", got)
	}
}

func TestRawBitsLength(t *testing.T) {
	// header(19) + data(len*8) + crc(15)
	for n := 0; n <= 8; n++ {
		f := MustNew(0x100, make([]byte, n))
		want := 19 + n*8 + 15
		if got := len(RawBits(f)); got != want {
			t.Fatalf("RawBits len for dlc %d = %d, want %d", n, got, want)
		}
	}
}

func TestStuffInsertsAfterFiveEqualBits(t *testing.T) {
	in := []byte{0, 0, 0, 0, 0}
	out := Stuff(in)
	want := []byte{0, 0, 0, 0, 0, 1}
	if len(out) != len(want) {
		t.Fatalf("Stuff(%v) = %v, want %v", in, out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("Stuff(%v) = %v, want %v", in, out, want)
		}
	}
}

func TestStuffCountsStuffBitTowardNextRun(t *testing.T) {
	// 0 0 0 0 0 -> stuff 1; then 1 1 1 1 -> with stuff bit that's five 1s,
	// so another stuff 0 must follow.
	in := []byte{0, 0, 0, 0, 0, 1, 1, 1, 1}
	out := Stuff(in)
	want := []byte{0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 0}
	if len(out) != len(want) {
		t.Fatalf("Stuff = %v, want %v", out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("Stuff = %v, want %v", out, want)
		}
	}
}

func TestStuffNoChangeForAlternating(t *testing.T) {
	in := []byte{0, 1, 0, 1, 0, 1, 0, 1}
	out := Stuff(in)
	if len(out) != len(in) {
		t.Fatalf("alternating bits should not be stuffed: %v", out)
	}
}

func TestUnstuffRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 1000; i++ {
		n := rng.Intn(128)
		in := make([]byte, n)
		for j := range in {
			in[j] = byte(rng.Intn(2))
		}
		out, err := Unstuff(Stuff(in))
		if err != nil {
			t.Fatalf("Unstuff error: %v (input %v)", err, in)
		}
		if len(out) != len(in) {
			t.Fatalf("round trip length %d != %d", len(out), len(in))
		}
		for j := range in {
			if out[j] != in[j] {
				t.Fatalf("round trip mismatch at %d", j)
			}
		}
	}
}

func TestUnstuffDetectsViolation(t *testing.T) {
	in := []byte{1, 1, 1, 1, 1, 1} // six recessive bits
	if _, err := Unstuff(in); !errors.Is(err, ErrStuffViolation) {
		t.Fatalf("err = %v, want ErrStuffViolation", err)
	}
}

func TestWireBitsBounds(t *testing.T) {
	// A 0-byte frame: 19+15 = 34 raw bits, + trailer 10 = 44 min (no stuffing
	// can make it shorter). Max stuffing adds at most len/4 bits.
	f := MustNew(0, nil)
	got := WireBits(f)
	if got < 44 || got > 44+10 {
		t.Fatalf("WireBits(empty) = %d, out of plausible range", got)
	}
	// An 8-byte frame: 19+64+15 = 98 raw bits + 10 trailer = 108 minimum.
	f8 := MustNew(0x7FF, []byte{0x55, 0xAA, 0x55, 0xAA, 0x55, 0xAA, 0x55, 0xAA})
	got8 := WireBits(f8)
	if got8 < 108 || got8 > 108+24 {
		t.Fatalf("WireBits(8 bytes) = %d, out of plausible range", got8)
	}
}

func TestWireBitsWorstCaseStuffing(t *testing.T) {
	// All-zero frame maximises stuffing.
	f := MustNew(0, []byte{0, 0, 0, 0, 0, 0, 0, 0})
	if WireBits(f) <= 108 {
		t.Fatalf("all-zero frame should be stuffed: %d bits", WireBits(f))
	}
}

func TestWireBitsWithIFS(t *testing.T) {
	f := MustNew(0x100, []byte{1})
	if got, want := WireBitsWithIFS(f), WireBits(f)+3; got != want {
		t.Fatalf("WireBitsWithIFS = %d, want %d", got, want)
	}
}

func TestPropertyStuffedNeverHasSixEqualBits(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		f := randomFrame(rng)
		stuffed := Stuff(RawBits(f))
		run, last := 0, byte(2)
		for _, b := range stuffed {
			if b == last {
				run++
			} else {
				run, last = 1, b
			}
			if run >= 6 {
				t.Fatalf("six equal bits in stuffed frame %v", f)
			}
		}
	}
}

func BenchmarkWireBits(b *testing.B) {
	f := MustNew(0x43A, []byte{0x1C, 0x21, 0x17, 0x71, 0x17, 0x71, 0xFF, 0xFF})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		WireBits(f)
	}
}

// BenchmarkWireBitsRandom runs WireBits over 4096 random frames, so the
// branch predictor cannot learn one frame's stuffing pattern the way it
// does in BenchmarkWireBits.
func BenchmarkWireBitsRandom(b *testing.B) {
	rng := rand.New(rand.NewSource(29))
	frames := make([]Frame, 4096)
	for i := range frames {
		frames[i] = randomFrame(rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		n += WireBits(frames[i&(len(frames)-1)])
	}
	wireBitsSink = n
}

// wireBitsSink keeps the benchmarked WireBits calls from being removed.
var wireBitsSink int

func TestWireBitsMatchesSlicePath(t *testing.T) {
	// The zero-allocation WireBits must agree exactly with the reference
	// Stuff(RawBits()) construction for every frame shape.
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 5000; i++ {
		f := randomFrame(rng)
		want := len(Stuff(RawBits(f))) + trailerBits
		if got := WireBits(f); got != want {
			t.Fatalf("WireBits(%v) = %d, want %d", f, got, want)
		}
	}
	// Remote frames too.
	for dlc := uint8(0); dlc <= 8; dlc++ {
		f, _ := NewRemote(ID(rng.Intn(NumIDs)), dlc)
		want := len(Stuff(RawBits(f))) + trailerBits
		if got := WireBits(f); got != want {
			t.Fatalf("WireBits(remote %v) = %d, want %d", f, got, want)
		}
	}
}
