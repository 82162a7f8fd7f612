package capture

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/clock"
)

func TestRecordString(t *testing.T) {
	r := Record{
		Time:  5328009 * time.Microsecond,
		Frame: can.MustNew(0x43A, []byte{0x1C, 0x21, 0x17, 0x71, 0x17, 0x71, 0xFF, 0xFF}),
	}
	want := "5328.009 043A 8 1C 21 17 71 17 71 FF FF"
	if got := r.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestTraceAppendAndLimit(t *testing.T) {
	tr := NewTrace(3)
	for i := 0; i < 5; i++ {
		tr.Append(Record{Frame: can.MustNew(can.ID(i), nil)})
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	if tr.Records()[0].Frame.ID != 2 {
		t.Fatalf("oldest retained = %v, want 2", tr.Records()[0].Frame.ID)
	}
}

func TestTraceIDsFirstSeenOrder(t *testing.T) {
	tr := NewTrace(0)
	for _, id := range []can.ID{0x296, 0x43A, 0x296, 0x110, 0x43A} {
		tr.Append(Record{Frame: can.MustNew(id, nil)})
	}
	ids := tr.IDs()
	want := []can.ID{0x296, 0x43A, 0x110}
	if len(ids) != len(want) {
		t.Fatalf("IDs = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", ids, want)
		}
	}
}

func TestRecordsReturnsCopy(t *testing.T) {
	tr := NewTrace(0)
	tr.Append(Record{Frame: can.MustNew(1, nil)})
	recs := tr.Records()
	recs[0].Frame.ID = 0x7FF
	if tr.Records()[0].Frame.ID != 1 {
		t.Fatal("Records aliases internal storage")
	}
}

func TestRecorderCapturesBusTraffic(t *testing.T) {
	s := clock.New()
	b := bus.New(s)
	rec := NewRecorder(b, 0)
	tx := b.Connect("tx")
	b.Connect("rx").SetReceiver(func(bus.Message) {})
	for i := 0; i < 5; i++ {
		tx.Send(can.MustNew(can.ID(0x100+i), []byte{byte(i)}))
	}
	s.RunUntil(time.Second)
	if rec.Trace().Len() != 5 {
		t.Fatalf("captured %d frames, want 5", rec.Trace().Len())
	}
	if rec.Trace().Records()[0].Origin != "tx" {
		t.Fatalf("origin = %q", rec.Trace().Records()[0].Origin)
	}
}

func TestWriteParseLogRoundTrip(t *testing.T) {
	tr := NewTrace(0)
	tr.Append(Record{Time: 1500 * time.Millisecond, Frame: can.MustNew(0x43A, []byte{0xDE, 0xAD}), Origin: "can0"})
	tr.Append(Record{Time: 1501 * time.Millisecond, Frame: can.MustNew(0x068, nil), Origin: "can0"})
	rem, _ := can.NewRemote(0x215, 7)
	tr.Append(Record{Time: 1502 * time.Millisecond, Frame: rem, Origin: "can0"})

	var sb strings.Builder
	if err := WriteLog(&sb, tr, "can0"); err != nil {
		t.Fatalf("WriteLog: %v", err)
	}
	got, err := ParseLog(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("ParseLog: %v\nlog:\n%s", err, sb.String())
	}
	if got.Len() != 3 {
		t.Fatalf("parsed %d records", got.Len())
	}
	want := tr.Records()
	for i, r := range got.Records() {
		if r.Frame != want[i].Frame {
			t.Fatalf("record %d frame mismatch: %v vs %v", i, r.Frame, want[i].Frame)
		}
		if r.Time != want[i].Time {
			t.Fatalf("record %d time mismatch", i)
		}
	}
}

func TestWriteLogFormat(t *testing.T) {
	tr := NewTrace(0)
	tr.Append(Record{Time: 2*time.Second + 345678*time.Microsecond, Frame: can.MustNew(0x110, []byte{0xAB, 0xCD})})
	var sb strings.Builder
	WriteLog(&sb, tr, "vcan0")
	want := "(2.345678) vcan0 110#ABCD\n"
	if sb.String() != want {
		t.Fatalf("log = %q, want %q", sb.String(), want)
	}
}

func TestParseLogSkipsCommentsAndBlank(t *testing.T) {
	log := "# header comment\n\n(0.000001) can0 001#AA\n"
	tr, err := ParseLog(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestParseLogErrors(t *testing.T) {
	bad := []string{
		"(0.000001) can0",                          // missing frame field
		"(abc) can0 001#AA",                        // bad timestamp
		"(0.000001) can0 FFFF#AA",                  // id out of range
		"(0.000001) can0 10215#AA",                 // id out of range
		"(0.000001) can0 001#AAA",                  // odd hex digits
		"(0.000001) can0 001#AABBCCDDEEFF00112233", // too long
		"(0.000001) can0 001#R9",                   // remote dlc out of range
		"(0.000001) can0 001AA",                    // no '#'
	}
	for _, line := range bad {
		if _, err := ParseLog(strings.NewReader(line)); err == nil {
			t.Errorf("ParseLog(%q) succeeded, want error", line)
		}
	}
}

// TestReadFramesBothForms: a seed corpus may hold bare ID#HEXDATA lines
// (canfuzz -corpus-out) and capture-log lines (candump, -minimize-out),
// mixed, and each line names the same frame either way.
func TestReadFramesBothForms(t *testing.T) {
	rem, _ := can.NewRemote(0x215, 3)
	want := []can.Frame{can.MustNew(0x215, []byte{0x20}), can.MustNew(0x110, []byte{0xAB, 0xCD}), rem, can.MustNew(0x7FF, nil)}
	in := "# seeds\n215#20\n\n(0.001000) can0 110#ABCD\n  215#R3\n(2.000000) vcan0 7FF#\n"
	got, err := ReadFrames(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("frame %d = %v, want %v", i, got[i], want[i])
		}
	}
	if _, err := ReadFrames(strings.NewReader("215#20\n10215#20\n")); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("wrapped identifier: err = %v, want an error naming line 2", err)
	}
	for _, bad := range []string{"(0.001000) can0 215#2", "(x) can0 215#20", "215#20 extra"} {
		if _, err := ReadFrames(strings.NewReader(bad)); err == nil {
			t.Errorf("ReadFrames(%q) succeeded, want error", bad)
		}
	}
}

func TestReplayPreservesTiming(t *testing.T) {
	s := clock.New()
	b := bus.New(s)
	port := b.Connect("replayer")
	var times []time.Duration
	var ids []can.ID
	b.Connect("rx").SetReceiver(func(m bus.Message) {
		times = append(times, m.Time)
		ids = append(ids, m.Frame.ID)
	})

	tr := NewTrace(0)
	tr.Append(Record{Time: 10 * time.Second, Frame: can.MustNew(0x100, []byte{1})})
	tr.Append(Record{Time: 10*time.Second + 50*time.Millisecond, Frame: can.MustNew(0x200, []byte{2})})

	dur := Replay(s, port, tr)
	if dur != 50*time.Millisecond {
		t.Fatalf("Replay duration = %v", dur)
	}
	s.RunUntil(time.Second)
	if len(ids) != 2 || ids[0] != 0x100 || ids[1] != 0x200 {
		t.Fatalf("replayed ids = %v", ids)
	}
	gap := times[1] - times[0]
	if gap < 49*time.Millisecond || gap > 51*time.Millisecond {
		t.Fatalf("inter-frame gap = %v, want ~50ms", gap)
	}
}

func TestReplayEmptyTrace(t *testing.T) {
	s := clock.New()
	b := bus.New(s)
	port := b.Connect("replayer")
	if d := Replay(s, port, NewTrace(0)); d != 0 {
		t.Fatalf("duration = %v", d)
	}
}

type failWriter struct{ after int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.after <= 0 {
		return 0, errFail
	}
	w.after -= len(p)
	return len(p), nil
}

var errFail = errors.New("write failed")

func TestWriteLogPropagatesWriterErrors(t *testing.T) {
	tr := NewTrace(0)
	for i := 0; i < 100; i++ {
		tr.Append(Record{Frame: can.MustNew(can.ID(i), []byte{byte(i)})})
	}
	if err := WriteLog(&failWriter{}, tr, "x"); !errors.Is(err, errFail) {
		t.Fatalf("err = %v, want write failure", err)
	}
}
