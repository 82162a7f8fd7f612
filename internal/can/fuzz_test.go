package can

// Native Go fuzz targets over the bit-level wire codec — the reproduction's
// equivalent of the paper's §VII suggestion to "fuzz the APIs for vehicle
// engineering tools... to ensure their resilience": these parsers are what
// a capture/injection tool exposes to untrusted input. Run with
// go test -fuzz; under plain go test they execute the seed corpus.

import (
	"testing"
)

func FuzzDecodeBits(f *testing.F) {
	f.Add(Stuff(RawBits(MustNew(0x215, []byte{0x20, 0x5F, 1, 0, 0, 1, 0x20}))))
	f.Add([]byte{0, 1, 0, 1, 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		// Normalise to bit values; the decoder contract is bits.
		bits := make([]byte, len(raw))
		for i, b := range raw {
			bits[i] = b & 1
		}
		frame, err := DecodeBits(bits)
		if err != nil {
			return
		}
		if err := frame.Validate(); err != nil {
			t.Fatalf("DecodeBits returned invalid frame: %v", err)
		}
		// Accepted bits must re-encode to an equal frame.
		back, err := DecodeBits(Stuff(RawBits(frame)))
		if err != nil || back != frame {
			t.Fatalf("bit round trip mismatch")
		}
	})
}

func FuzzUnstuff(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 1, 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		bits := make([]byte, len(raw))
		for i, b := range raw {
			bits[i] = b & 1
		}
		out, err := Unstuff(bits)
		if err != nil {
			return
		}
		// Unstuffed output can never be longer than the input.
		if len(out) > len(bits) {
			t.Fatalf("Unstuff grew the sequence: %d > %d", len(out), len(bits))
		}
	})
}
