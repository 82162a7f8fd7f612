package can

import (
	"errors"
	"math/rand"
	"testing"
)

func TestEncodeDecodeBitsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 500; i++ {
		f := randomFrame(rng)
		g, err := DecodeBits(Stuff(RawBits(f)))
		if err != nil {
			t.Fatalf("DecodeBits(%v): %v", f, err)
		}
		if f != g {
			t.Fatalf("bit round trip mismatch: %v != %v", f, g)
		}
	}
}

func TestDecodeBitsRemoteRoundTrip(t *testing.T) {
	f, _ := NewRemote(0x3AB, 3)
	g, err := DecodeBits(Stuff(RawBits(f)))
	if err != nil {
		t.Fatalf("DecodeBits: %v", err)
	}
	if !g.Remote || g.ID != 0x3AB || g.Len != 3 {
		t.Fatalf("decoded %+v", g)
	}
}

func TestDecodeBitsDetectsCorruption(t *testing.T) {
	f := MustNew(0x43A, []byte{0x1C, 0x21, 0x17, 0x71})
	bits := Stuff(RawBits(f))
	// Flip one payload bit; expect either CRC error or stuffing violation.
	bits[25] ^= 1
	if _, err := DecodeBits(bits); err == nil {
		t.Fatal("corrupted bits decoded without error")
	}
}

func TestDecodeBitsTruncated(t *testing.T) {
	if _, err := DecodeBits([]byte{0, 1, 0, 1}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestCRC15KnownVectors(t *testing.T) {
	// CRC of the empty sequence is 0.
	if got := CRC15(nil); got != 0 {
		t.Fatalf("CRC15(nil) = %#x, want 0", got)
	}
	// A single 1 bit: crc = poly.
	if got := CRC15([]byte{1}); got != crc15Poly&0x7FFF {
		t.Fatalf("CRC15([1]) = %#x, want %#x", got, crc15Poly&0x7FFF)
	}
	// CRC must stay within 15 bits for long runs.
	bits := make([]byte, 4096)
	for i := range bits {
		bits[i] = byte(i % 2)
	}
	if got := CRC15(bits); got > 0x7FFF {
		t.Fatalf("CRC15 overflowed 15 bits: %#x", got)
	}
}

func TestFrameCRCChangesWithPayload(t *testing.T) {
	a := RawBits(MustNew(0x100, []byte{1, 2, 3}))
	b := RawBits(MustNew(0x100, []byte{1, 2, 4}))
	if bitsEqual(a[len(a)-15:], b[len(b)-15:]) {
		t.Fatal("CRC collision on adjacent payloads (suspicious)")
	}
}
