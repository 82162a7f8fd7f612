package bus

import (
	"errors"
	"testing"
	"time"

	"repro/internal/can"
	"repro/internal/clock"
)

func TestFDDelivery(t *testing.T) {
	s, b := newBus(t)
	tx := b.Connect("tx")
	rx := b.Connect("rx")
	var got []FDMessage
	rx.SetFDReceiver(func(m FDMessage) { got = append(got, m) })

	f := can.MustNewFD(0x123, make([]byte, 32), true)
	if err := tx.SendFD(f); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(time.Second)
	if len(got) != 1 || !got[0].Frame.Equal(f) {
		t.Fatalf("got %v", got)
	}
}

func TestFDNotDeliveredToClassicReceivers(t *testing.T) {
	s, b := newBus(t)
	tx := b.Connect("tx")
	rx := b.Connect("rx")
	classic := 0
	rx.SetReceiver(func(Message) { classic++ })
	tx.SendFD(can.MustNewFD(0x123, []byte{1}, false))
	s.RunUntil(time.Second)
	if classic != 0 {
		t.Fatal("FD frame delivered to classic receiver")
	}
}

func TestFDArbitratesWithClassic(t *testing.T) {
	s, b := newBus(t)
	a := b.Connect("a")
	c := b.Connect("c")
	rx := b.Connect("rx")
	var order []string
	rx.SetReceiver(func(m Message) { order = append(order, "classic") })
	rx.SetFDReceiver(func(m FDMessage) { order = append(order, "fd") })

	// Occupy the bus, then queue an FD frame with lower ID than a classic.
	a.Send(can.MustNew(0x7FF, make([]byte, 8)))
	c.SendFD(can.MustNewFD(0x050, []byte{1}, false))
	a.Send(can.MustNew(0x400, nil))
	s.RunUntil(time.Second)
	if len(order) != 3 || order[1] != "fd" || order[2] != "classic" {
		t.Fatalf("order = %v", order)
	}
}

func TestFDDataBitrateSpeedsUpBRS(t *testing.T) {
	run := func(dataBps int) time.Duration {
		s := clock.New()
		b := New(s, WithFDDataBitrate(dataBps))
		tx := b.Connect("tx")
		rx := b.Connect("rx")
		var at time.Duration
		rx.SetFDReceiver(func(m FDMessage) { at = m.Time })
		tx.SendFD(can.MustNewFD(0x100, make([]byte, 64), true))
		s.RunUntil(time.Second)
		return at
	}
	slow := run(0)         // no bitrate switching
	fast := run(2_000_000) // 2 Mbit/s data phase
	if fast >= slow {
		t.Fatalf("BRS delivery not faster: %v vs %v", fast, slow)
	}
}

func TestFDValidationAndQueueLimits(t *testing.T) {
	s := clock.New()
	b := New(s, WithTxQueueCap(1))
	tx := b.Connect("tx")
	if err := tx.SendFD(can.FDFrame{ID: 0x900}); !errors.Is(err, can.ErrIDRange) {
		t.Fatalf("err = %v", err)
	}
	if err := tx.SendFD(can.FDFrame{ID: 1, Len: 9}); !errors.Is(err, can.ErrFDDataLen) {
		t.Fatalf("err = %v", err)
	}
	ok := can.MustNewFD(1, nil, false)
	tx.SendFD(ok)
	tx.SendFD(ok)
	if err := tx.SendFD(ok); !errors.Is(err, ErrTxQueueFull) {
		t.Fatalf("err = %v", err)
	}
}

// TestFDInterceptorVerdicts pins the FD path's reading of the wire-fault
// hook: TxCorrupt destroys the frame, every other verdict delivers it.
func TestFDInterceptorVerdicts(t *testing.T) {
	for _, tc := range []struct {
		action    TxAction
		delivered int
	}{{TxDeliver, 1}, {TxCorrupt, 0}, {TxDrop, 1}, {TxDuplicate, 1}} {
		s, b := newBus(t)
		tx := b.Connect("tx")
		count := 0
		b.Connect("rx").SetFDReceiver(func(FDMessage) { count++ })
		b.SetInterceptor(func(can.Frame) TxAction { return tc.action })
		tx.SendFD(can.MustNewFD(0x100, []byte{1, 2}, false))
		s.RunUntil(time.Second)
		if count != tc.delivered {
			t.Errorf("verdict %d: receiver saw %d frames, want %d", tc.action, count, tc.delivered)
		}
	}
}

func TestFDBusOffBlocksSend(t *testing.T) {
	s, b := newBus(t)
	tx := b.Connect("tx")
	b.Connect("rx").SetFDReceiver(func(FDMessage) {})
	b.SetInterceptor(func(can.Frame) TxAction { return TxCorrupt })
	for i := 0; i < 40; i++ {
		if err := tx.SendFD(can.MustNewFD(1, nil, false)); err != nil {
			break
		}
		s.RunFor(10 * time.Millisecond)
	}
	if tx.State() != BusOff {
		t.Fatalf("state = %v, want bus-off", tx.State())
	}
	if err := tx.SendFD(can.MustNewFD(1, nil, false)); !errors.Is(err, ErrBusOff) {
		t.Fatalf("err = %v", err)
	}
}
