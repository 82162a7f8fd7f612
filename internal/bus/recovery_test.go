package bus

import (
	"errors"
	"testing"
	"time"

	"repro/internal/can"
	"repro/internal/clock"
)

// driveBusOff sends corrupted frames from tx until it reaches bus-off, then
// removes the corruptor. The clock is stepped by exactly one frame time per
// send, so on return Now is the precise instant of the bus-off transition
// (the completion of the 32nd corrupted frame) and no idle time has accrued
// toward recovery yet.
func driveBusOff(t *testing.T, s *clock.Scheduler, b *Bus, tx *Port) time.Duration {
	t.Helper()
	frame := can.MustNew(0x1, nil)
	step := b.FrameTime(frame)
	b.SetInterceptor(func(can.Frame) TxAction { return TxCorrupt })
	for i := 0; i < 40 && tx.State() != BusOff; i++ {
		if err := tx.Send(frame); err != nil {
			break
		}
		s.RunUntil(s.Now() + step)
	}
	if tx.State() != BusOff {
		t.Fatalf("failed to drive port to bus-off (state %v)", tx.State())
	}
	b.SetInterceptor(nil)
	return s.Now()
}

// isoRecoveryTime is the idle-bus recovery interval at the default bitrate:
// 128 sequences of 11 recessive bits at 2 µs per bit.
const isoRecoveryTime = busOffRecoverySequences * recessiveSeqBits * 2 * time.Microsecond

func TestBusOffAutoRecoveryOnIdleBus(t *testing.T) {
	s, b := newBus(t, WithAutoRecovery())
	tx := b.Connect("tx")
	b.Connect("rx").SetReceiver(func(Message) {})

	driveBusOff(t, s, b, tx)
	if !tx.Recovering() {
		t.Fatal("auto-recovery did not start at bus-off")
	}
	busOffIdleStart := s.Now() // bus idle from here (RunUntil past the last frame)

	// One bit time before the ISO interval elapses the node is still off.
	s.RunUntil(busOffIdleStart + isoRecoveryTime - 2*time.Microsecond)
	if tx.State() != BusOff {
		t.Fatalf("state = %v before the ISO interval, want bus-off", tx.State())
	}
	s.RunUntil(busOffIdleStart + isoRecoveryTime)
	if tx.State() != ErrorActive {
		t.Fatalf("state = %v after 128x11 recessive bit times, want error-active", tx.State())
	}
	if tec, rec := tx.ErrorCounters(); tec != 0 || rec != 0 {
		t.Fatalf("counters after rejoin = %d/%d, want 0/0", tec, rec)
	}
	st := tx.Stats()
	if st.BusOffs != 1 || st.Recoveries != 1 {
		t.Fatalf("BusOffs/Recoveries = %d/%d, want 1/1", st.BusOffs, st.Recoveries)
	}
	// The rejoined node transmits again.
	if err := tx.Send(can.MustNew(0x1, nil)); err != nil {
		t.Fatalf("send after rejoin: %v", err)
	}
}

func TestBusOffStaysWithoutAutoRecovery(t *testing.T) {
	s, b := newBus(t)
	tx := b.Connect("tx")
	b.Connect("rx").SetReceiver(func(Message) {})
	driveBusOff(t, s, b, tx)
	s.RunUntil(s.Now() + time.Second)
	if tx.State() != BusOff {
		t.Fatalf("state = %v, want bus-off to persist without recovery", tx.State())
	}
	if err := tx.Send(can.MustNew(0x1, nil)); !errors.Is(err, ErrBusOff) {
		t.Fatalf("err = %v, want ErrBusOff", err)
	}
}

func TestSetAutoRecoverLateStartsRecovery(t *testing.T) {
	s, b := newBus(t)
	tx := b.Connect("tx")
	b.Connect("rx").SetReceiver(func(Message) {})
	driveBusOff(t, s, b, tx)
	s.RunUntil(s.Now() + 10*time.Millisecond) // parked in bus-off

	enabledAt := s.Now()
	tx.SetAutoRecover(true)
	if !tx.Recovering() {
		t.Fatal("SetAutoRecover on a bus-off node did not start recovery")
	}
	s.RunUntil(enabledAt + isoRecoveryTime)
	if tx.State() != ErrorActive {
		t.Fatalf("state = %v, want error-active", tx.State())
	}
}

func TestBusWideSetAutoRecovery(t *testing.T) {
	s, b := newBus(t)
	tx := b.Connect("tx")
	b.Connect("rx").SetReceiver(func(Message) {})
	driveBusOff(t, s, b, tx)

	b.SetAutoRecovery(true)
	s.RunUntil(s.Now() + isoRecoveryTime)
	if tx.State() != ErrorActive {
		t.Fatalf("state = %v after bus-wide enable, want error-active", tx.State())
	}
	// New connections inherit the default.
	if !b.Connect("late").AutoRecover() {
		t.Fatal("port connected after SetAutoRecovery(true) does not auto-recover")
	}
}

func TestRecoveryCountsFrameEndsUnderLoad(t *testing.T) {
	s, b := newBus(t, WithAutoRecovery())
	tx := b.Connect("tx")
	other := b.Connect("other")
	b.Connect("rx").SetReceiver(func(Message) {})
	driveBusOff(t, s, b, tx)

	// Saturate the bus: queue 128 back-to-back frames. The bus is never
	// idle between them, so recovery advances one sequence per end of
	// frame and completes exactly at the 128th completion.
	frame := can.MustNew(0x200, []byte{0xAA})
	perFrame := b.FrameTime(frame)
	start := s.Now()
	for i := 0; i < busOffRecoverySequences; i++ {
		if err := other.Send(frame); err != nil {
			t.Fatalf("queue frame %d: %v", i, err)
		}
	}
	// After 127 completions the node is still recovering...
	s.RunUntil(start + 127*perFrame)
	if tx.State() != BusOff {
		t.Fatalf("state = %v after 127 frame ends, want bus-off", tx.State())
	}
	// ...and the 128th frame end rejoins it.
	s.RunUntil(start + 128*perFrame)
	if tx.State() != ErrorActive {
		t.Fatalf("state = %v after 128 frame ends, want error-active", tx.State())
	}
}

func TestJamDefersRecovery(t *testing.T) {
	s, b := newBus(t, WithAutoRecovery())
	tx := b.Connect("tx")
	b.Connect("rx").SetReceiver(func(Message) {})
	driveBusOff(t, s, b, tx)

	// A stuck-dominant window shows no recessive bits: the rejoin slips
	// past the jam by the full remaining interval.
	jamStart := s.Now()
	const jam = 5 * time.Millisecond
	b.Jam(jam)
	if !b.Jammed() {
		t.Fatal("bus not jammed")
	}
	s.RunUntil(jamStart + jam + isoRecoveryTime - 2*time.Microsecond)
	if tx.State() != BusOff {
		t.Fatalf("state = %v during deferred recovery, want bus-off", tx.State())
	}
	s.RunUntil(jamStart + jam + isoRecoveryTime)
	if tx.State() != ErrorActive {
		t.Fatalf("state = %v after jam + ISO interval, want error-active", tx.State())
	}
	if b.Stats().JamTime != jam {
		t.Fatalf("JamTime = %v, want %v", b.Stats().JamTime, jam)
	}
}

func TestJamBlocksTransmissions(t *testing.T) {
	s, b := newBus(t)
	tx := b.Connect("tx")
	rx := b.Connect("rx")
	var deliveredAt time.Duration
	rx.SetReceiver(func(m Message) { deliveredAt = m.Time })

	const jam = 10 * time.Millisecond
	b.Jam(jam)
	f := can.MustNew(0x1, []byte{1})
	if err := tx.Send(f); err != nil {
		t.Fatalf("Send during jam: %v", err)
	}
	s.RunUntil(time.Second)
	want := jam + b.FrameTime(f)
	if deliveredAt != want {
		t.Fatalf("delivered at %v, want %v (after the jam)", deliveredAt, want)
	}
}

func TestInterceptorDropAndDuplicate(t *testing.T) {
	s, b := newBus(t)
	tx := b.Connect("tx")
	rx := b.Connect("rx")
	var got []can.ID
	rx.SetReceiver(func(m Message) { got = append(got, m.Frame.ID) })
	b.SetInterceptor(func(f can.Frame) TxAction {
		switch f.ID {
		case 0x10:
			return TxDrop
		case 0x20:
			return TxDuplicate
		default:
			return TxDeliver
		}
	})
	for _, id := range []can.ID{0x10, 0x20, 0x30} {
		if err := tx.Send(can.MustNew(id, nil)); err != nil {
			t.Fatalf("Send %v: %v", id, err)
		}
	}
	s.RunUntil(time.Second)
	want := []can.ID{0x20, 0x20, 0x30}
	if len(got) != len(want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered %v, want %v", got, want)
		}
	}
	st := b.Stats()
	if st.FramesDropped != 1 || st.FramesDuplicated != 1 {
		t.Fatalf("dropped/duplicated = %d/%d, want 1/1", st.FramesDropped, st.FramesDuplicated)
	}
	// A dropped frame still counts as delivered for the transmitter (it
	// saw its ACK), and the sender's TEC still heals.
	if st.FramesDelivered != 3 {
		t.Fatalf("delivered stat = %d, want 3", st.FramesDelivered)
	}
}

// --- TEC/REC recovery direction (the bump paths are tested elsewhere) -------

func TestRECDecrementsOnReceiveAndReturnsErrorActive(t *testing.T) {
	s, b := newBus(t)
	tx := b.Connect("tx")
	rx := b.Connect("rx")
	rx.SetReceiver(func(Message) {})

	// 128 corrupted transmissions push every receiver's REC to 128:
	// error-passive.
	b.SetInterceptor(func(can.Frame) TxAction { return TxCorrupt })
	for i := 0; i < errorPassiveThreshold; i++ {
		// Keep the transmitter alive: reset its TEC between sends.
		tx.ResetErrors()
		if err := tx.Send(can.MustNew(0x1, nil)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		s.RunUntil(s.Now() + time.Millisecond)
	}
	if rx.State() != ErrorPassive {
		_, rec := rx.ErrorCounters()
		t.Fatalf("rx state = %v (rec=%d), want error-passive", rx.State(), rec)
	}

	// Each successful reception decrements REC by 1; after one the node is
	// back under the threshold and error-active again.
	b.SetInterceptor(nil)
	tx.ResetErrors()
	if err := tx.Send(can.MustNew(0x1, nil)); err != nil {
		t.Fatalf("healing send: %v", err)
	}
	s.RunUntil(s.Now() + time.Millisecond)
	if _, rec := rx.ErrorCounters(); rec != errorPassiveThreshold-1 {
		t.Fatalf("rec = %d, want %d", rec, errorPassiveThreshold-1)
	}
	if rx.State() != ErrorActive {
		t.Fatalf("rx state = %v after healing, want error-active", rx.State())
	}
}

func TestTECDecrementReturnsErrorActive(t *testing.T) {
	s, b := newBus(t)
	tx := b.Connect("tx")
	b.Connect("rx").SetReceiver(func(Message) {})

	// 16 corrupted sends: TEC 128, error-passive.
	b.SetInterceptor(func(can.Frame) TxAction { return TxCorrupt })
	for i := 0; i < 16; i++ {
		tx.Send(can.MustNew(0x1, nil))
		s.RunUntil(s.Now() + time.Millisecond)
	}
	if tx.State() != ErrorPassive {
		t.Fatalf("state = %v, want error-passive", tx.State())
	}

	// One successful send: TEC 127, back to error-active; further
	// successes keep decrementing toward zero.
	b.SetInterceptor(nil)
	tx.Send(can.MustNew(0x1, nil))
	s.RunUntil(s.Now() + time.Millisecond)
	if tec, _ := tx.ErrorCounters(); tec != errorPassiveThreshold-1 {
		t.Fatalf("tec = %d, want %d", tec, errorPassiveThreshold-1)
	}
	if tx.State() != ErrorActive {
		t.Fatalf("state = %v after one success, want error-active", tx.State())
	}
	for i := 0; i < 127; i++ {
		tx.Send(can.MustNew(0x1, nil))
		s.RunUntil(s.Now() + time.Millisecond)
	}
	if tec, _ := tx.ErrorCounters(); tec != 0 {
		t.Fatalf("tec = %d after full heal, want 0", tec)
	}
}
