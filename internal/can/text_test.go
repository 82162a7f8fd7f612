package can

import (
	"errors"
	"fmt"
	"testing"
)

// TestFrameTextRoundTripEveryID prints every standard identifier at every
// length, as a data and as a remote frame, and checks the bytes against
// the "%03X#%X" and "%03X#R%d" forms the files and reports have always
// carried, then parses them back to the same frame.
func TestFrameTextRoundTripEveryID(t *testing.T) {
	var buf []byte
	for id := ID(0); id <= MaxID; id++ {
		for n := 0; n <= MaxDataLen; n++ {
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(int(id)*7 + i*37)
			}
			remote, err := NewRemote(id, uint8(n))
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				f    Frame
				want string
			}{
				{MustNew(id, data), fmt.Sprintf("%03X#%X", uint16(id), data)},
				{remote, fmt.Sprintf("%03X#R%d", uint16(id), n)},
			} {
				buf = AppendFrame(buf[:0], c.f)
				if string(buf) != c.want {
					t.Fatalf("AppendFrame(%v) = %q, want %q", c.f, buf, c.want)
				}
				back, err := ParseFrame(string(buf))
				if err != nil || back != c.f {
					t.Fatalf("ParseFrame(%q) = %v, %v; want %v", buf, back, err, c.f)
				}
			}
		}
	}
}

func TestParseFrameAccepts(t *testing.T) {
	for in, want := range map[string]Frame{
		"215#205f01":           MustNew(0x215, []byte{0x20, 0x5F, 0x01}),
		"0007FF#":              MustNew(0x7FF, nil),
		"7#R0":                 {ID: 7, Remote: true},
		"43a#R8":               {ID: 0x43A, Len: 8, Remote: true},
		"000#0102030405060708": MustNew(0, []byte{1, 2, 3, 4, 5, 6, 7, 8}),
	} {
		got, err := ParseFrame(in)
		if err != nil || got != want {
			t.Errorf("ParseFrame(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
}

func TestParseFrameRejects(t *testing.T) {
	for in, want := range map[string]error{
		"10215#20":               ErrIDRange, // wrapped to 0x215 in a uint16
		"800#":                   ErrIDRange,
		"FFFF#AA":                ErrIDRange,
		"#20":                    ErrText,
		"21G#20":                 ErrText,
		"0x215#20":               ErrText,
		"215":                    ErrText,
		"215#2":                  ErrText,
		"215#2G":                 ErrText,
		"215#0102030405060708FF": ErrText,
		"215#R9":                 ErrText,
		"215#R":                  ErrText,
		"215#R-1":                ErrText,
		"215#r3":                 ErrText,
	} {
		if _, err := ParseFrame(in); !errors.Is(err, want) {
			t.Errorf("ParseFrame(%q) err = %v, want %v", in, err, want)
		}
	}
}

func TestParseID(t *testing.T) {
	for in, want := range map[string]ID{"0": 0, "215": 0x215, "7ff": MaxID, "00043A": 0x43A} {
		if got, err := ParseID(in); err != nil || got != want {
			t.Errorf("ParseID(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "800", "10215", " 215", "21 5", "+215"} {
		if _, err := ParseID(in); err == nil {
			t.Errorf("ParseID(%q) succeeded", in)
		}
	}
}

// FuzzParseFrame: text that parses names a valid frame, and that frame
// prints and re-parses to itself.
func FuzzParseFrame(f *testing.F) {
	for _, s := range []string{"215#205F0100000120", "7FF#", "043A#R8", "10215#20", "215#2", "#", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		frame, err := ParseFrame(s)
		if err != nil {
			return
		}
		if err := frame.Validate(); err != nil {
			t.Fatalf("ParseFrame(%q) returned an invalid frame: %v", s, err)
		}
		text := AppendFrame(nil, frame)
		back, err := ParseFrame(string(text))
		if err != nil || back != frame {
			t.Fatalf("ParseFrame(%q) = %v; printed %q re-parses to %v, %v", s, frame, text, back, err)
		}
	})
}
