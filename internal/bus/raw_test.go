package bus

import (
	"errors"
	"testing"
	"time"

	"repro/internal/can"
	"repro/internal/clock"
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

func TestRawArbIDShortSequence(t *testing.T) {
	if id := rawArbID([]byte{0, 1}); id != can.MaxID {
		t.Fatalf("short sequence id = %v, want lowest priority", id)
	}
}
