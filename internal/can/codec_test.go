package can

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		f := randomFrame(rng)
		buf, err := Marshal(f)
		if err != nil {
			t.Fatalf("Marshal(%v): %v", f, err)
		}
		g, n, err := Unmarshal(buf)
		if err != nil {
			t.Fatalf("Unmarshal: %v", err)
		}
		if n != len(buf) {
			t.Fatalf("consumed %d bytes, want %d", n, len(buf))
		}
		if !f.Equal(g) {
			t.Fatalf("round trip mismatch: %v != %v", f, g)
		}
	}
}

func TestMarshalRemoteFrame(t *testing.T) {
	f, _ := NewRemote(0x215, 7)
	buf, err := Marshal(f)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if len(buf) != 3 {
		t.Fatalf("remote frame encoding = %d bytes, want 3", len(buf))
	}
	g, _, err := Unmarshal(buf)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !g.Remote || g.Len != 7 || g.ID != 0x215 {
		t.Fatalf("decoded %+v", g)
	}
}

func TestMarshalRejectsInvalid(t *testing.T) {
	f := Frame{ID: 0x900}
	if _, err := Marshal(f); !errors.Is(err, ErrIDRange) {
		t.Fatalf("err = %v, want ErrIDRange", err)
	}
}

func TestUnmarshalTruncatedHeader(t *testing.T) {
	if _, _, err := Unmarshal([]byte{0x01}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestUnmarshalTruncatedPayload(t *testing.T) {
	buf := []byte{0x00, 0x10, 0x05, 0x01, 0x02} // dlc 5 but 2 bytes present
	if _, _, err := Unmarshal(buf); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestUnmarshalBadDLC(t *testing.T) {
	buf := []byte{0x00, 0x10, 0x0C}
	if _, _, err := Unmarshal(buf); !errors.Is(err, ErrDataLen) {
		t.Fatalf("err = %v, want ErrDataLen", err)
	}
}

func TestUnmarshalRejectsReservedFlags(t *testing.T) {
	buf := []byte{0x40, 0x10, 0x00} // reserved flag bit set
	if _, _, err := Unmarshal(buf); err == nil {
		t.Fatal("expected error for reserved flag bits")
	}
}

func TestUnmarshalStream(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	frames := make([]Frame, 50)
	var stream []byte
	for i := range frames {
		frames[i] = randomFrame(rng)
		var err error
		stream, err = AppendMarshal(stream, frames[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	off := 0
	for i := range frames {
		f, n, err := Unmarshal(stream[off:])
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !f.Equal(frames[i]) {
			t.Fatalf("frame %d mismatch", i)
		}
		off += n
	}
	if off != len(stream) {
		t.Fatalf("consumed %d of %d bytes", off, len(stream))
	}
}

func TestEncodeDecodeBitsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 500; i++ {
		f := randomFrame(rng)
		g, err := DecodeBits(Stuff(RawBits(f)))
		if err != nil {
			t.Fatalf("DecodeBits(%v): %v", f, err)
		}
		if !f.Equal(g) {
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

func TestPropertyMarshalRoundTrip(t *testing.T) {
	prop := func(idSeed uint16, raw []byte, remote bool) bool {
		id := ID(idSeed % NumIDs)
		var f Frame
		if remote {
			f, _ = NewRemote(id, uint8(len(raw)%9))
		} else {
			if len(raw) > MaxDataLen {
				raw = raw[:MaxDataLen]
			}
			f = MustNew(id, raw)
		}
		buf, err := Marshal(f)
		if err != nil {
			return false
		}
		g, _, err := Unmarshal(buf)
		return err == nil && f.Equal(g)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMarshal(b *testing.B) {
	f := MustNew(0x43A, []byte{0x1C, 0x21, 0x17, 0x71, 0x17, 0x71, 0xFF, 0xFF})
	buf := make([]byte, 0, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		buf, _ = AppendMarshal(buf, f)
	}
}
