package bus

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/can"
	"repro/internal/clock"
	"repro/internal/telemetry"
)

func TestSendRawValidBitsDeliverAsFrame(t *testing.T) {
	s, b := newBus(t)
	tx := b.Connect("tx")
	rx := b.Connect("rx")
	var got []can.Frame
	rx.SetReceiver(func(m Message) { got = append(got, m.Frame) })

	want := can.MustNew(0x123, []byte{0xDE, 0xAD})
	var result RawResult
	if err := tx.SendRaw(can.Stuff(can.RawBits(want)), func(r RawResult) { result = r }); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(time.Second)
	if len(got) != 1 || got[0] != want {
		t.Fatalf("got %v", got)
	}
	if result != RawDelivered {
		t.Fatalf("result = %v", result)
	}
}

func TestSendRawCorruptBitsTriggerErrorFrame(t *testing.T) {
	s, b := newBus(t)
	tx := b.Connect("tx")
	rx := b.Connect("rx")
	count := 0
	rx.SetReceiver(func(Message) { count++ })

	bits := can.Stuff(can.RawBits(can.MustNew(0x123, []byte{0xDE, 0xAD})))
	bits[20] ^= 1 // corrupt a payload bit: CRC mismatch
	var result RawResult
	tx.SendRaw(bits, func(r RawResult) { result = r })
	s.RunUntil(time.Second)
	if count != 0 {
		t.Fatal("corrupt bits delivered as a frame")
	}
	if result != RawErrorFrame {
		t.Fatalf("result = %v", result)
	}
	tec, _ := tx.ErrorCounters()
	if tec != 8 {
		t.Fatalf("tx TEC = %d, want 8", tec)
	}
	_, rec := rx.ErrorCounters()
	if rec != 1 {
		t.Fatalf("rx REC = %d, want 1", rec)
	}
	if b.Stats().FramesCorrupted != 1 {
		t.Fatal("corrupted counter not bumped")
	}
}

func TestSendRawOccupiesBus(t *testing.T) {
	s, b := newBus(t)
	tx := b.Connect("tx")
	b.Connect("rx").SetReceiver(func(Message) {})
	bits := can.Stuff(can.RawBits(can.MustNew(0x001, make([]byte, 8))))
	bits[30] ^= 1
	tx.SendRaw(bits, nil)
	s.RunUntil(time.Second)
	if b.Stats().BusyTime == 0 {
		t.Fatal("raw transmission did not occupy the bus")
	}
}

func TestSendRawArbitratesAgainstFrames(t *testing.T) {
	s, b := newBus(t)
	a := b.Connect("a")
	c := b.Connect("c")
	rx := b.Connect("rx")
	var order []can.ID
	rx.SetReceiver(func(m Message) { order = append(order, m.Frame.ID) })

	// Occupy the bus, then queue a raw sequence with a LOW id on one port
	// and a normal frame with a HIGH id on another; the raw wins.
	a.Send(can.MustNew(0x7FF, make([]byte, 8)))
	c.SendRaw(can.Stuff(can.RawBits(can.MustNew(0x050, []byte{1}))), nil)
	a.Send(can.MustNew(0x400, []byte{2}))
	s.RunUntil(time.Second)
	want := []can.ID{0x7FF, 0x050, 0x400}
	if len(order) != 3 || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestSendRawRepeatedCorruptionDrivesBusOff(t *testing.T) {
	s, b := newBus(t)
	tx := b.Connect("attacker")
	b.Connect("victim").SetReceiver(func(Message) {})
	bits := can.Stuff(can.RawBits(can.MustNew(0x100, []byte{1, 2, 3})))
	bits[25] ^= 1
	for i := 0; i < 40; i++ {
		if err := tx.SendRaw(bits, nil); err != nil {
			break
		}
		s.RunFor(10 * time.Millisecond)
	}
	if tx.State() != BusOff {
		t.Fatalf("attacker state = %v, want bus-off (32 error frames x8 TEC)", tx.State())
	}
	if err := tx.SendRaw(bits, nil); !errors.Is(err, ErrBusOff) {
		t.Fatalf("err = %v, want ErrBusOff", err)
	}
}

func TestSendRawVictimAccumulatesREC(t *testing.T) {
	s, b := newBus(t)
	tx := b.Connect("attacker")
	victim := b.Connect("victim")
	victim.SetReceiver(func(Message) {})
	bits := can.Stuff(can.RawBits(can.MustNew(0x100, []byte{9})))
	bits[22] ^= 1
	for i := 0; i < 130; i++ {
		tx.ResetErrors() // keep the attacker alive (it controls its own node)
		tx.SendRaw(bits, nil)
		s.RunFor(time.Millisecond)
	}
	if victim.State() != ErrorPassive {
		_, rec := victim.ErrorCounters()
		t.Fatalf("victim state = %v (rec=%d), want error-passive", victim.State(), rec)
	}
}

func TestSendRawDetachedAndQueueLimits(t *testing.T) {
	s := clock.New()
	b := New(s, WithTxQueueCap(1))
	tx := b.Connect("tx")
	bits := can.Stuff(can.RawBits(can.MustNew(0x700, nil)))
	// First starts transmitting... raw queue pops at start, so fill it.
	if err := tx.SendRaw(bits, nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.SendRaw(bits, nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.SendRaw(bits, nil); !errors.Is(err, ErrTxQueueFull) {
		t.Fatalf("err = %v, want ErrTxQueueFull", err)
	}
	tx.Detach()
	if err := tx.SendRaw(bits, nil); !errors.Is(err, ErrDetached) {
		t.Fatalf("err = %v, want ErrDetached", err)
	}
}

// TestRawArbIDEveryID checks that a valid encoding arbitrates at its own
// identifier for all 2048 IDs, data and remote frames alike, although a
// stuff bit falls inside the first twelve wire bits of many of them.
func TestRawArbIDEveryID(t *testing.T) {
	var bits []byte
	wrong := 0
	for id := can.ID(0); id <= can.MaxID; id++ {
		remote, err := can.NewRemote(id, uint8(id%9))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []can.Frame{can.MustNew(id, []byte{byte(id)}), remote} {
			bits = can.AppendEncodeBits(bits[:0], f)
			if got := rawArbID(bits); got != f.ID {
				if wrong++; wrong <= 5 {
					t.Errorf("rawArbID(%v) = %v, want %v", f, got, f.ID)
				}
			}
		}
	}
	if wrong > 0 {
		t.Fatalf("%d of %d encodings arbitrate at the wrong identifier", wrong, 2*can.NumIDs)
	}
}

// TestSendRawWireTimeMatchesSend checks that a valid encoding sent with
// SendRaw holds the bus exactly as long as Send holds it for the same
// frame: the same busy time, delivery instant and tx span.
func TestSendRawWireTimeMatchesSend(t *testing.T) {
	remote, err := can.NewRemote(0x7DF, 8)
	if err != nil {
		t.Fatal(err)
	}
	frames := []can.Frame{
		can.MustNew(0x215, []byte{0x20, 0x5F, 1, 0, 0, 1, 0x20}),
		can.MustNew(0x000, nil),
		can.MustNew(0x7FF, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}),
		remote,
	}
	run := func(f can.Frame, raw bool) string {
		s, b := newBus(t)
		tel := telemetry.New(0)
		b.Instrument(tel)
		tx := b.Connect("tx")
		var at time.Duration
		b.Connect("rx").SetReceiver(func(m Message) { at = m.Time })
		if raw {
			tx.SendRaw(can.AppendEncodeBits(nil, f), nil)
		} else {
			tx.Send(f)
		}
		s.RunUntil(time.Second)
		var spans []string
		for _, e := range tel.Tracer.Events() {
			if e.Kind == telemetry.EvTx {
				spans = append(spans, fmt.Sprintf("%03x@%v+%v bits=%d", e.ID, e.At, e.Dur, e.N))
			}
		}
		return fmt.Sprintf("busy=%v delivered@%v tx=%v", b.Stats().BusyTime, at, spans)
	}
	for _, f := range frames {
		if got, want := run(f, true), run(f, false); got != want {
			t.Errorf("%v: SendRaw %s, Send %s", f, got, want)
		}
	}
}

func TestRawArbIDShortSequence(t *testing.T) {
	if id := rawArbID([]byte{0, 1}); id != can.MaxID {
		t.Fatalf("short sequence id = %v, want lowest priority", id)
	}
}

// TestSendRawSharesFIFOWithSend pins one transmit queue per port: raw and
// classic sends from one port leave in the order they were queued, even
// when the later one carries the lower identifier.
func TestSendRawSharesFIFOWithSend(t *testing.T) {
	s, b := newBus(t)
	a := b.Connect("a")
	rx := b.Connect("rx")
	var order []can.ID
	rx.SetReceiver(func(m Message) { order = append(order, m.Frame.ID) })

	a.Send(can.MustNew(0x7FF, make([]byte, 8))) // occupies the bus
	a.SendRaw(can.AppendEncodeBits(nil, can.MustNew(0x600, []byte{1})), nil)
	a.Send(can.MustNew(0x100, []byte{2}))
	s.RunUntil(time.Second)
	if got, want := fmt.Sprint(order), fmt.Sprint([]can.ID{0x7FF, 0x600, 0x100}); got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
}

// TestSendRawSharesQueueCapacity pins one queue capacity for raw and
// classic sends.
func TestSendRawSharesQueueCapacity(t *testing.T) {
	s := clock.New()
	b := New(s, WithTxQueueCap(1))
	tx := b.Connect("tx")
	f := can.MustNew(0x700, nil)
	if err := tx.Send(f); err != nil { // on the wire at once
		t.Fatal(err)
	}
	if err := tx.Send(f); err != nil { // fills the queue
		t.Fatal(err)
	}
	if err := tx.SendRaw(can.AppendEncodeBits(nil, f), nil); !errors.Is(err, ErrTxQueueFull) {
		t.Fatalf("err = %v, want ErrTxQueueFull", err)
	}
}

// TestSendRawDoneSkipsDroppedEntries pins that the outcome callback fires
// only for a transmission that completes, never for one dropped from the
// queue.
func TestSendRawDoneSkipsDroppedEntries(t *testing.T) {
	s, b := newBus(t)
	tx := b.Connect("tx")
	b.Connect("rx").SetReceiver(func(Message) {})
	f := can.MustNew(0x123, []byte{1})
	calls := 0
	tx.SendRaw(can.AppendEncodeBits(nil, f), func(RawResult) { calls++ }) // on the wire
	tx.SendRaw(can.AppendEncodeBits(nil, f), func(RawResult) { calls++ }) // queued
	tx.Detach()
	s.RunUntil(time.Second)
	if calls != 1 {
		t.Fatalf("done fired %d times, want 1 (the queued entry was dropped)", calls)
	}
}

// TestSendRawThroughInterceptor pins that a raw sequence completes like a
// frame: the wire-fault hook sees it, and a corrupted one reports an
// error frame.
func TestSendRawThroughInterceptor(t *testing.T) {
	s, b := newBus(t)
	tx := b.Connect("tx")
	b.Connect("rx").SetReceiver(func(Message) { t.Error("corrupted frame delivered") })
	var seen []can.ID
	b.SetInterceptor(func(f can.Frame) TxAction {
		seen = append(seen, f.ID)
		return TxCorrupt
	})
	var result RawResult
	tx.SendRaw(can.AppendEncodeBits(nil, can.MustNew(0x123, []byte{1})), func(r RawResult) { result = r })
	s.RunUntil(time.Second)
	if len(seen) != 1 || seen[0] != 0x123 || result != RawErrorFrame {
		t.Fatalf("interceptor saw %v, result %v; want [0123] and an error frame", seen, result)
	}
	if tec, _ := tx.ErrorCounters(); tec != 8 {
		t.Fatalf("tx TEC = %d, want 8", tec)
	}
}
