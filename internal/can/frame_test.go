package can

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidFrame(t *testing.T) {
	f, err := New(0x43A, []byte{0x1C, 0x21, 0x17, 0x71, 0x17, 0x71, 0xFF, 0xFF})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if f.ID != 0x43A || f.Len != 8 {
		t.Fatalf("frame = %+v", f)
	}
	if f.Remote {
		t.Fatal("data frame marked remote")
	}
}

func TestNewRejectsBigID(t *testing.T) {
	_, err := New(0x800, nil)
	if !errors.Is(err, ErrIDRange) {
		t.Fatalf("err = %v, want ErrIDRange", err)
	}
}

func TestNewRejectsLongPayload(t *testing.T) {
	_, err := New(1, make([]byte, 9))
	if !errors.Is(err, ErrDataLen) {
		t.Fatalf("err = %v, want ErrDataLen", err)
	}
}

func TestNewAcceptsEmptyPayload(t *testing.T) {
	f, err := New(0x68, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if f.Len != 0 {
		t.Fatalf("Len = %d, want 0", f.Len)
	}
}

func TestMustNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(0xFFFF, nil)
}

func TestNewRemote(t *testing.T) {
	for _, dlc := range []uint8{4, MaxDataLen} {
		f, err := NewRemote(0x100, dlc)
		if err != nil {
			t.Fatalf("NewRemote(dlc %d): %v", dlc, err)
		}
		if !f.Remote || f.Len != dlc {
			t.Fatalf("frame = %+v", f)
		}
		if err := f.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
	}
}

func TestNewRemoteRejectsBadDLC(t *testing.T) {
	if _, err := NewRemote(0x100, 9); !errors.Is(err, ErrDataLen) {
		t.Fatalf("err = %v, want ErrDataLen", err)
	}
}

func TestValidateRemoteWithData(t *testing.T) {
	f := Frame{ID: 1, Len: 2, Remote: true}
	f.Data[0] = 0xAA
	if err := f.Validate(); !errors.Is(err, ErrRemote) {
		t.Fatalf("err = %v, want ErrRemote", err)
	}
}

func TestValidateBadDLC(t *testing.T) {
	f := Frame{ID: 1, Len: 12}
	if err := f.Validate(); !errors.Is(err, ErrDataLen) {
		t.Fatalf("err = %v, want ErrDataLen", err)
	}
}

func TestIDString(t *testing.T) {
	cases := []struct {
		id   ID
		want string
	}{
		{0x43A, "043A"},
		{0x296, "0296"},
		{0x0, "0000"},
		{0x7FF, "07FF"},
	}
	for _, c := range cases {
		if got := c.id.String(); got != c.want {
			t.Errorf("ID(%#x).String() = %q, want %q", uint16(c.id), got, c.want)
		}
	}
}

func TestFrameStringMatchesPaperLayout(t *testing.T) {
	// Table II row: 043A 8 "1C 21 17 71 17 71 FF FF".
	f := MustNew(0x43A, []byte{0x1C, 0x21, 0x17, 0x71, 0x17, 0x71, 0xFF, 0xFF})
	want := "043A 8 1C 21 17 71 17 71 FF FF"
	if got := f.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestFrameStringRemote(t *testing.T) {
	f, _ := NewRemote(0x215, 7)
	if got := f.String(); got != "0215 7 R" {
		t.Fatalf("String() = %q", got)
	}
}

// randomFrame builds a uniformly random valid data frame.
func randomFrame(rng *rand.Rand) Frame {
	n := rng.Intn(MaxDataLen + 1)
	data := make([]byte, n)
	rng.Read(data)
	return MustNew(ID(rng.Intn(NumIDs)), data)
}

func TestPropertyNewRoundTripsPayload(t *testing.T) {
	prop := func(idSeed uint16, data []byte) bool {
		id := ID(idSeed % NumIDs)
		if len(data) > MaxDataLen {
			data = data[:MaxDataLen]
		}
		f, err := New(id, data)
		if err != nil {
			return false
		}
		p := f.Data[:f.Len]
		if len(p) != len(data) {
			return false
		}
		for i := range data {
			if p[i] != data[i] {
				return false
			}
		}
		return f.Validate() == nil
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
