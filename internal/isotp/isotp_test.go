package isotp

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/clock"
)

// pair wires two endpoints across a simulated bus. a transmits on 0x7E0 and
// listens on 0x7E8; b is the mirror image (the classic tester/ECU pairing).
func pair(t *testing.T, cfgA, cfgB Config) (s *clock.Scheduler, a, b *Endpoint, gotA, gotB *[][]byte) {
	t.Helper()
	s = clock.New()
	bb := bus.New(s)
	pa := bb.Connect("tester")
	pb := bb.Connect("ecu")
	var msgsA, msgsB [][]byte
	a = NewEndpoint(s, pa.Send, 0x7E0, 0x7E8, cfgA, func(p []byte) { msgsA = append(msgsA, p) })
	b = NewEndpoint(s, pb.Send, 0x7E8, 0x7E0, cfgB, func(p []byte) { msgsB = append(msgsB, p) })
	pa.SetReceiver(a.HandleFrame)
	pb.SetReceiver(b.HandleFrame)
	return s, a, b, &msgsA, &msgsB
}

func TestSingleFrameRoundTrip(t *testing.T) {
	s, a, _, _, gotB := pair(t, Config{}, Config{})
	payload := []byte{0x10, 0x01}
	if err := a.Send(payload); err != nil {
		t.Fatalf("Send: %v", err)
	}
	s.RunUntil(time.Second)
	if len(*gotB) != 1 || !bytes.Equal((*gotB)[0], payload) {
		t.Fatalf("received %v", *gotB)
	}
}

func TestSevenBytePayloadIsSingleFrame(t *testing.T) {
	s, a, _, _, gotB := pair(t, Config{}, Config{})
	payload := []byte{1, 2, 3, 4, 5, 6, 7}
	if err := a.Send(payload); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(10 * time.Millisecond) // no FC wait needed
	if len(*gotB) != 1 || !bytes.Equal((*gotB)[0], payload) {
		t.Fatalf("received %v", *gotB)
	}
}

func TestMultiFrameRoundTrip(t *testing.T) {
	s, a, _, _, gotB := pair(t, Config{}, Config{})
	payload := make([]byte, 100)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := a.Send(payload); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(5 * time.Second)
	if len(*gotB) != 1 {
		t.Fatalf("received %d messages, want 1", len(*gotB))
	}
	if !bytes.Equal((*gotB)[0], payload) {
		t.Fatalf("payload mismatch: got %d bytes", len((*gotB)[0]))
	}
}

func TestMaxPayloadRoundTrip(t *testing.T) {
	s, a, _, _, gotB := pair(t, Config{}, Config{})
	payload := make([]byte, MaxPayload)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	if err := a.Send(payload); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(30 * time.Second)
	if len(*gotB) != 1 || !bytes.Equal((*gotB)[0], payload) {
		t.Fatalf("max payload transfer failed (%d messages)", len(*gotB))
	}
}

func TestPayloadTooLong(t *testing.T) {
	_, a, _, _, _ := pair(t, Config{}, Config{})
	if err := a.Send(make([]byte, MaxPayload+1)); !errors.Is(err, ErrTooLong) {
		t.Fatalf("err = %v, want ErrTooLong", err)
	}
}

func TestBusyDuringMultiFrame(t *testing.T) {
	_, a, _, _, _ := pair(t, Config{}, Config{})
	if err := a.Send(make([]byte, 50)); err != nil {
		t.Fatal(err)
	}
	if err := a.Send([]byte{1}); !errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
}

func TestBlockSizeTriggersIntermediateFC(t *testing.T) {
	// Receiver advertises BS=2: transmitter must pause for FC every 2 CFs.
	s, a, _, _, gotB := pair(t, Config{}, Config{BlockSize: 2})
	payload := make([]byte, 6+7*7) // FF + 7 CFs
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := a.Send(payload); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(10 * time.Second)
	if len(*gotB) != 1 || !bytes.Equal((*gotB)[0], payload) {
		t.Fatalf("blocked transfer failed (%d messages)", len(*gotB))
	}
}

func TestSTminPacing(t *testing.T) {
	s, a, _, _, gotB := pair(t, Config{}, Config{STmin: 5 * time.Millisecond})
	payload := make([]byte, 6+7*4) // 4 CFs
	if err := a.Send(payload); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(10 * time.Millisecond)
	if len(*gotB) != 0 {
		t.Fatal("transfer finished implausibly fast for STmin=5ms")
	}
	s.RunUntil(time.Second)
	if len(*gotB) != 1 {
		t.Fatal("paced transfer did not complete")
	}
}

func TestTimeoutWithoutFlowControl(t *testing.T) {
	// No peer endpoint: FF goes unanswered, transfer must time out.
	s := clock.New()
	bb := bus.New(s)
	p := bb.Connect("lonely")
	var errs []error
	ep := NewEndpoint(s, p.Send, 0x7E0, 0x7E8, Config{Timeout: 100 * time.Millisecond}, nil)
	ep.OnError(func(err error) { errs = append(errs, err) })
	if err := ep.Send(make([]byte, 20)); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(time.Second)
	if len(errs) != 1 || !errors.Is(errs[0], ErrTimeout) {
		t.Fatalf("errs = %v, want timeout", errs)
	}
	if ep.Busy() {
		t.Fatal("endpoint stuck busy after timeout")
	}
}

func TestSequenceErrorAborts(t *testing.T) {
	s := clock.New()
	bb := bus.New(s)
	pTester := bb.Connect("tester")
	pECU := bb.Connect("ecu")
	var errs []error
	ecu := NewEndpoint(s, pECU.Send, 0x7E8, 0x7E0, Config{}, nil)
	ecu.OnError(func(err error) { errs = append(errs, err) })
	pECU.SetReceiver(ecu.HandleFrame)

	// Handcraft FF then a CF with the wrong sequence number.
	pTester.Send(can.MustNew(0x7E0, []byte{0x10, 0x14, 1, 2, 3, 4, 5, 6}))
	s.RunUntil(10 * time.Millisecond)
	pTester.Send(can.MustNew(0x7E0, []byte{0x25, 7, 8, 9, 10, 11, 12, 13})) // seq 5, want 1
	s.RunUntil(20 * time.Millisecond)
	if len(errs) != 1 || !errors.Is(errs[0], ErrSequence) {
		t.Fatalf("errs = %v, want sequence error", errs)
	}
}

func TestStrayConsecutiveFrameIgnored(t *testing.T) {
	s := clock.New()
	bb := bus.New(s)
	pTester := bb.Connect("tester")
	pECU := bb.Connect("ecu")
	var msgs [][]byte
	var errs []error
	ecu := NewEndpoint(s, pECU.Send, 0x7E8, 0x7E0, Config{}, func(p []byte) { msgs = append(msgs, p) })
	ecu.OnError(func(err error) { errs = append(errs, err) })
	pECU.SetReceiver(ecu.HandleFrame)
	pTester.Send(can.MustNew(0x7E0, []byte{0x21, 1, 2, 3})) // CF without FF
	s.RunUntil(10 * time.Millisecond)
	if len(msgs) != 0 || len(errs) != 0 {
		t.Fatalf("stray CF not ignored: msgs=%v errs=%v", msgs, errs)
	}
}

func TestMalformedSingleFrameLength(t *testing.T) {
	s := clock.New()
	bb := bus.New(s)
	pTester := bb.Connect("tester")
	pECU := bb.Connect("ecu")
	var errs []error
	ecu := NewEndpoint(s, pECU.Send, 0x7E8, 0x7E0, Config{}, nil)
	ecu.OnError(func(err error) { errs = append(errs, err) })
	pECU.SetReceiver(ecu.HandleFrame)
	pTester.Send(can.MustNew(0x7E0, []byte{0x05, 1, 2})) // claims 5, carries 2
	s.RunUntil(10 * time.Millisecond)
	if len(errs) != 1 || !errors.Is(errs[0], ErrMalformed) {
		t.Fatalf("errs = %v, want malformed", errs)
	}
}

func TestOverflowFlowControlAborts(t *testing.T) {
	s := clock.New()
	bb := bus.New(s)
	pA := bb.Connect("a")
	pB := bb.Connect("b")
	var errs []error
	a := NewEndpoint(s, pA.Send, 0x700, 0x701, Config{}, nil)
	a.OnError(func(err error) { errs = append(errs, err) })
	pA.SetReceiver(a.HandleFrame)
	// B answers any FF with an overflow FC, no endpoint logic needed.
	pB.SetReceiver(func(m bus.Message) {
		if m.Frame.ID == 0x700 && m.Frame.Data[0]>>4 == 0x1 {
			pB.Send(can.MustNew(0x701, []byte{0x32, 0, 0}))
		}
	})
	if err := a.Send(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(time.Second)
	if len(errs) != 1 || !errors.Is(errs[0], ErrOverflow) {
		t.Fatalf("errs = %v, want overflow", errs)
	}
	if a.Busy() {
		t.Fatal("endpoint stuck busy after overflow")
	}
}

func TestWaitFlowControlDefersThenCompletes(t *testing.T) {
	s := clock.New()
	bb := bus.New(s)
	pA := bb.Connect("a")
	pB := bb.Connect("b")
	var got [][]byte
	a := NewEndpoint(s, pA.Send, 0x700, 0x701, Config{}, nil)
	pA.SetReceiver(a.HandleFrame)
	b := NewEndpoint(s, pB.Send, 0x701, 0x700, Config{}, func(p []byte) { got = append(got, p) })
	// Intercept: first send a WAIT, then hand off to the real endpoint.
	sentWait := false
	pB.SetReceiver(func(m bus.Message) {
		if !sentWait && m.Frame.Data[0]>>4 == 0x1 {
			sentWait = true
			pB.Send(can.MustNew(0x701, []byte{0x31, 0, 0}))
			// Deliver FF to the endpoint too so it primes reassembly, and
			// let its own CTS follow.
		}
		b.HandleFrame(m)
	})
	payload := make([]byte, 30)
	for i := range payload {
		payload[i] = byte(i + 1)
	}
	if err := a.Send(payload); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(2 * time.Second)
	if len(got) != 1 || !bytes.Equal(got[0], payload) {
		t.Fatalf("transfer after WAIT failed: %v", got)
	}
}

func TestBackToBackTransfers(t *testing.T) {
	s, a, _, _, gotB := pair(t, Config{}, Config{})
	for i := 0; i < 5; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, 20+i)
		if err := a.Send(payload); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		s.RunUntil(s.Now() + 2*time.Second)
	}
	if len(*gotB) != 5 {
		t.Fatalf("received %d messages, want 5", len(*gotB))
	}
	for i, p := range *gotB {
		if len(p) != 20+i || p[0] != byte(i) {
			t.Fatalf("message %d corrupted", i)
		}
	}
}

func TestBidirectionalSingleFrames(t *testing.T) {
	s, a, b, gotA, gotB := pair(t, Config{}, Config{})
	a.Send([]byte{0xAA})
	b.Send([]byte{0xBB})
	s.RunUntil(time.Second)
	if len(*gotB) != 1 || (*gotB)[0][0] != 0xAA {
		t.Fatalf("b received %v", *gotB)
	}
	if len(*gotA) != 1 || (*gotA)[0][0] != 0xBB {
		t.Fatalf("a received %v", *gotA)
	}
}

func TestSTminCodec(t *testing.T) {
	cases := []struct {
		b    byte
		want time.Duration
	}{
		{0x00, 0},
		{0x7F, 127 * time.Millisecond},
		{0x0A, 10 * time.Millisecond},
		{0xF1, 100 * time.Microsecond},
		{0xF9, 900 * time.Microsecond},
		{0xAA, 127 * time.Millisecond}, // reserved -> max
	}
	for _, c := range cases {
		if got := decodeSTmin(c.b); got != c.want {
			t.Errorf("decodeSTmin(%#x) = %v, want %v", c.b, got, c.want)
		}
	}
	if encodeSTmin(10*time.Millisecond) != 0x0A {
		t.Error("encodeSTmin(10ms) wrong")
	}
	if encodeSTmin(500*time.Microsecond) != 0xF5 {
		t.Error("encodeSTmin(500µs) wrong")
	}
	if encodeSTmin(5*time.Second) != 0x7F {
		t.Error("encodeSTmin should clamp to 127ms")
	}
	if encodeSTmin(0) != 0 {
		t.Error("encodeSTmin(0) wrong")
	}
}

func TestUnexpectedFlowControlCountsError(t *testing.T) {
	s := clock.New()
	bb := bus.New(s)
	pA := bb.Connect("a")
	pB := bb.Connect("b")
	var errs []error
	a := NewEndpoint(s, pA.Send, 0x700, 0x701, Config{}, nil)
	a.OnError(func(err error) { errs = append(errs, err) })
	pA.SetReceiver(a.HandleFrame)
	// Send an FC with no transfer in progress.
	pB.Send(can.MustNew(0x701, []byte{0x30, 0, 0}))
	s.RunUntil(10 * time.Millisecond)
	if len(errs) != 1 || !errors.Is(errs[0], ErrUnexpectedFC) {
		t.Fatalf("errs = %v", errs)
	}
}

func TestReservedFlowStatusRejected(t *testing.T) {
	s := clock.New()
	bb := bus.New(s)
	pA := bb.Connect("a")
	pB := bb.Connect("b")
	var errs []error
	a := NewEndpoint(s, pA.Send, 0x700, 0x701, Config{}, nil)
	a.OnError(func(err error) { errs = append(errs, err) })
	pA.SetReceiver(a.HandleFrame)
	pB.SetReceiver(func(m bus.Message) {
		if m.Frame.ID == 0x700 && m.Frame.Data[0]>>4 == 0x1 {
			pB.Send(can.MustNew(0x701, []byte{0x3F, 0, 0})) // reserved status
		}
	})
	a.Send(make([]byte, 20))
	s.RunUntil(time.Second)
	found := false
	for _, err := range errs {
		if errors.Is(err, ErrMalformed) {
			found = true
		}
	}
	if !found {
		t.Fatalf("errs = %v, want malformed flow status", errs)
	}
}

func TestFirstFrameWithSFSizedPayloadRejected(t *testing.T) {
	s := clock.New()
	bb := bus.New(s)
	pTester := bb.Connect("tester")
	pECU := bb.Connect("ecu")
	var errs []error
	ecu := NewEndpoint(s, pECU.Send, 0x7E8, 0x7E0, Config{}, nil)
	ecu.OnError(func(err error) { errs = append(errs, err) })
	pECU.SetReceiver(ecu.HandleFrame)
	// FF claiming 5 bytes total (fits a single frame): malformed.
	pTester.Send(can.MustNew(0x7E0, []byte{0x10, 0x05, 1, 2, 3, 4, 5, 6}))
	s.RunUntil(10 * time.Millisecond)
	if len(errs) != 1 || !errors.Is(errs[0], ErrMalformed) {
		t.Fatalf("errs = %v", errs)
	}
}

func TestRemoteAndEmptyFramesIgnored(t *testing.T) {
	s := clock.New()
	bb := bus.New(s)
	pTester := bb.Connect("tester")
	pECU := bb.Connect("ecu")
	count := 0
	ecu := NewEndpoint(s, pECU.Send, 0x7E8, 0x7E0, Config{}, func([]byte) { count++ })
	pECU.SetReceiver(ecu.HandleFrame)
	rem, _ := can.NewRemote(0x7E0, 8)
	pTester.Send(rem)
	pTester.Send(can.MustNew(0x7E0, nil))
	pTester.Send(can.MustNew(0x7E1, []byte{0x01, 0xAA})) // wrong id
	s.RunUntil(10 * time.Millisecond)
	if count != 0 {
		t.Fatal("endpoint consumed non-TP frames")
	}
}

func TestNewFirstFrameAbortsOngoingReassembly(t *testing.T) {
	s := clock.New()
	bb := bus.New(s)
	pTester := bb.Connect("tester")
	pECU := bb.Connect("ecu")
	var msgs [][]byte
	ecu := NewEndpoint(s, pECU.Send, 0x7E8, 0x7E0, Config{}, func(p []byte) { msgs = append(msgs, p) })
	pECU.SetReceiver(ecu.HandleFrame)
	// Start a transfer, abandon it, start a fresh one and complete it.
	pTester.Send(can.MustNew(0x7E0, []byte{0x10, 0x0D, 1, 2, 3, 4, 5, 6}))
	s.RunUntil(10 * time.Millisecond)
	pTester.Send(can.MustNew(0x7E0, []byte{0x10, 0x0D, 9, 9, 9, 9, 9, 9}))
	s.RunUntil(20 * time.Millisecond)
	pTester.Send(can.MustNew(0x7E0, []byte{0x21, 9, 9, 9, 9, 9, 9, 9}))
	s.RunUntil(30 * time.Millisecond)
	if len(msgs) != 1 {
		t.Fatalf("messages = %d", len(msgs))
	}
	if msgs[0][0] != 9 {
		t.Fatal("stale reassembly delivered")
	}
}

func TestBusyAccessor(t *testing.T) {
	_, a, _, _, _ := pair(t, Config{}, Config{})
	if a.Busy() {
		t.Fatal("fresh endpoint busy")
	}
	a.Send(make([]byte, 30))
	if !a.Busy() {
		t.Fatal("multi-frame send not busy")
	}
}

func TestPaddedTransmission(t *testing.T) {
	// Both sides padded: every TP frame on the wire is 8 bytes, and the
	// payloads still round-trip exactly (the SF length nibble, not the
	// DLC, bounds the data).
	s := clock.New()
	bb := bus.New(s)
	pa := bb.Connect("a")
	pb := bb.Connect("b")
	var msgsB [][]byte
	a := NewEndpoint(s, pa.Send, 0x7E0, 0x7E8, Config{Pad: true}, nil)
	b := NewEndpoint(s, pb.Send, 0x7E8, 0x7E0, Config{Pad: true}, func(p []byte) { msgsB = append(msgsB, p) })
	pa.SetReceiver(a.HandleFrame)
	pb.SetReceiver(b.HandleFrame)

	var wire []uint8
	bb.Tap(func(m bus.Message) { wire = append(wire, m.Frame.Len) })

	short := []byte{0x3E, 0x00}
	long := bytes.Repeat([]byte{0xA7}, 30)
	a.Send(short)
	s.RunUntil(time.Second)
	a.Send(long)
	s.RunUntil(3 * time.Second)

	if len(msgsB) != 2 || !bytes.Equal(msgsB[0], short) || !bytes.Equal(msgsB[1], long) {
		t.Fatalf("padded round trip failed: %v", msgsB)
	}
	for i, l := range wire {
		if l != 8 {
			t.Fatalf("wire frame %d has DLC %d, want 8 (padded)", i, l)
		}
	}
}

func TestUnpaddedPeerAcceptsPaddedFrames(t *testing.T) {
	s := clock.New()
	bb := bus.New(s)
	pa := bb.Connect("a")
	pb := bb.Connect("b")
	var got [][]byte
	a := NewEndpoint(s, pa.Send, 0x7E0, 0x7E8, Config{Pad: true}, nil)
	b := NewEndpoint(s, pb.Send, 0x7E8, 0x7E0, Config{}, func(p []byte) { got = append(got, p) })
	pa.SetReceiver(a.HandleFrame)
	pb.SetReceiver(b.HandleFrame)
	payload := []byte{1, 2, 3}
	a.Send(payload)
	s.RunUntil(time.Second)
	if len(got) != 1 || !bytes.Equal(got[0], payload) {
		t.Fatalf("got %v", got)
	}
}
