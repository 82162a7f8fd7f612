package can

import (
	"errors"
	"testing"
	"time"
)

func TestFDDLCTable(t *testing.T) {
	valid := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 20, 24, 32, 48, 64}
	for code, want := range valid {
		if got := fdLengths[code]; got != want {
			t.Fatalf("fdLengths[%d] = %d, want %d", code, got, want)
		}
		back, err := FDLengthToDLC(want)
		if err != nil || back != uint8(code) {
			t.Fatalf("FDLengthToDLC(%d) = %d, %v", want, back, err)
		}
	}
	for _, bad := range []int{9, 10, 11, 13, 33, 63, 65, -1} {
		if _, err := FDLengthToDLC(bad); !errors.Is(err, ErrFDDataLen) {
			t.Fatalf("FDLengthToDLC(%d) accepted", bad)
		}
	}
}

func TestNewFDValidation(t *testing.T) {
	if _, err := NewFD(0x900, nil, false); !errors.Is(err, ErrIDRange) {
		t.Fatalf("err = %v", err)
	}
	if _, err := NewFD(0x100, make([]byte, 9), false); !errors.Is(err, ErrFDDataLen) {
		t.Fatalf("err = %v", err)
	}
	f, err := NewFD(0x100, make([]byte, 64), true)
	if err != nil {
		t.Fatal(err)
	}
	if f.Len != 64 || !f.BRS {
		t.Fatalf("frame = %+v", f)
	}
}

func TestFDWireTimeBRSFasterForLargePayload(t *testing.T) {
	data := make([]byte, 64)
	slow := MustNewFD(0x100, data, false)
	fast := MustNewFD(0x100, data, true)
	tSlow := FDWireTime(slow, 500_000, 2_000_000)
	tFast := FDWireTime(fast, 500_000, 2_000_000)
	if tFast >= tSlow {
		t.Fatalf("BRS frame not faster: %v vs %v", tFast, tSlow)
	}
	// The data phase dominates a 64-byte frame: the 4x bitrate should cut
	// total time by at least 2.5x.
	if float64(tSlow)/float64(tFast) < 2.5 {
		t.Fatalf("speedup only %v/%v", tSlow, tFast)
	}
}

func TestFDWireTimeMonotonicInPayload(t *testing.T) {
	var last time.Duration
	for _, n := range []int{0, 8, 16, 32, 64} {
		f := MustNewFD(0x100, make([]byte, n), false)
		d := FDWireTime(f, 500_000, 0)
		if d <= last {
			t.Fatalf("wire time not increasing at %d bytes: %v <= %v", n, d, last)
		}
		last = d
	}
}

func TestFDBeatsClassicForBulkTransfer(t *testing.T) {
	// Moving 64 bytes: one FD frame at 500k/2M vs eight classic frames.
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i * 37)
	}
	fd := MustNewFD(0x100, payload, true)
	fdTime := FDWireTime(fd, 500_000, 2_000_000)
	var classicTime time.Duration
	for i := 0; i < 8; i++ {
		f := MustNew(0x100, payload[i*8:(i+1)*8])
		classicTime += time.Duration(WireBitsWithIFS(f)) * time.Second / 500_000
	}
	if fdTime >= classicTime {
		t.Fatalf("FD bulk transfer not faster: %v vs %v", fdTime, classicTime)
	}
}

func BenchmarkFDWireTime(b *testing.B) {
	f := MustNewFD(0x43A, make([]byte, 64), true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FDWireTime(f, 500_000, 2_000_000)
	}
}
