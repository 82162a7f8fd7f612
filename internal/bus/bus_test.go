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

func newBus(t *testing.T, opts ...Option) (*clock.Scheduler, *Bus) {
	t.Helper()
	s := clock.New()
	return s, New(s, opts...)
}

func TestSingleFrameDelivery(t *testing.T) {
	s, b := newBus(t)
	tx := b.Connect("tx")
	rx := b.Connect("rx")
	var got []Message
	rx.SetReceiver(func(m Message) { got = append(got, m) })

	f := can.MustNew(0x123, []byte{1, 2, 3})
	if err := tx.Send(f); err != nil {
		t.Fatalf("Send: %v", err)
	}
	s.RunUntil(time.Second)
	if len(got) != 1 {
		t.Fatalf("received %d frames, want 1", len(got))
	}
	if got[0].Frame != f {
		t.Fatalf("frame = %v, want %v", got[0].Frame, f)
	}
	if got[0].Origin != "tx" {
		t.Fatalf("origin = %q", got[0].Origin)
	}
}

func TestSenderDoesNotReceiveOwnFrame(t *testing.T) {
	s, b := newBus(t)
	tx := b.Connect("tx")
	count := 0
	tx.SetReceiver(func(Message) { count++ })
	tx.Send(can.MustNew(0x1, nil))
	s.RunUntil(time.Second)
	if count != 0 {
		t.Fatal("node received its own frame")
	}
}

func TestBroadcastToAllOtherNodes(t *testing.T) {
	s, b := newBus(t)
	tx := b.Connect("tx")
	counts := make([]int, 3)
	for i := 0; i < 3; i++ {
		i := i
		b.Connect("rx").SetReceiver(func(Message) { counts[i]++ })
	}
	tx.Send(can.MustNew(0x1, []byte{0xAA}))
	s.RunUntil(time.Second)
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("receiver %d got %d frames, want 1", i, c)
		}
	}
}

func TestDeliveryLatencyMatchesWireLength(t *testing.T) {
	s, b := newBus(t) // 500 kb/s: 2 µs per bit
	tx := b.Connect("tx")
	rx := b.Connect("rx")
	f := can.MustNew(0x555, []byte{0x55, 0x55}) // alternating: no stuffing
	var at time.Duration
	rx.SetReceiver(func(m Message) { at = m.Time })
	tx.Send(f)
	s.RunUntil(time.Second)
	wantBits := can.WireBitsWithIFS(f)
	want := time.Duration(wantBits) * time.Second / time.Duration(DefaultBitrate)
	if at != want {
		t.Fatalf("delivered at %v, want %v (%d bits)", at, want, wantBits)
	}
}

func TestArbitrationLowestIDWins(t *testing.T) {
	s, b := newBus(t)
	hi := b.Connect("hi")
	lo := b.Connect("lo")
	rx := b.Connect("rx")
	var order []can.ID
	rx.SetReceiver(func(m Message) { order = append(order, m.Frame.ID) })

	// Queue both while the bus is idle within one event: use a scheduled
	// event so neither transmission starts before both are queued.
	s.After(time.Millisecond, func() {
		hi.Send(can.MustNew(0x400, []byte{1}))
		lo.Send(can.MustNew(0x100, []byte{2}))
	})
	s.RunUntil(time.Second)
	if len(order) != 2 {
		t.Fatalf("got %d frames", len(order))
	}
	// 0x400 was queued first and the bus was idle, so it transmits first;
	// arbitration applies to simultaneous contention, not FIFO history.
	if order[0] != 0x400 || order[1] != 0x100 {
		t.Fatalf("order = %v", order)
	}
}

func TestArbitrationAmongSimultaneousQueues(t *testing.T) {
	s, b := newBus(t)
	a := b.Connect("a")
	c := b.Connect("c")
	d := b.Connect("d")
	rx := b.Connect("rx")
	var order []can.ID
	rx.SetReceiver(func(m Message) { order = append(order, m.Frame.ID) })

	// While a long frame occupies the bus, three nodes queue. On bus idle,
	// the lowest ID must win regardless of queueing order.
	a.Send(can.MustNew(0x7FF, make([]byte, 8))) // occupies the bus first
	a.Send(can.MustNew(0x300, []byte{3}))
	c.Send(can.MustNew(0x050, []byte{1}))
	d.Send(can.MustNew(0x200, []byte{2}))
	s.RunUntil(time.Second)

	want := []can.ID{0x7FF, 0x050, 0x200, 0x300}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// arbTrace returns the arbitration events an instrumented bus traced, as
// "kind actor id" strings in order.
func arbTrace(tel *telemetry.Telemetry) []string {
	var out []string
	for _, e := range tel.Tracer.Events() {
		if e.Kind == telemetry.EvArbWon || e.Kind == telemetry.EvArbLost {
			out = append(out, fmt.Sprintf("%s %s %03x", e.Name, e.Actor, e.ID))
		}
	}
	return out
}

// TestArbitrationTraceEvents checks the arbitration trace on an
// instrumented bus: a lone sender records one arb-won and no arb-lost per
// frame (the uncontended path skips the loser scan), while contended
// rounds record an arb-lost for every loser, in attach order, before the
// winner's arb-won.
func TestArbitrationTraceEvents(t *testing.T) {
	t.Run("single sender", func(t *testing.T) {
		s, b := newBus(t)
		tel := telemetry.New(0)
		b.Instrument(tel)
		tx := b.Connect("tx")
		b.Connect("rx")
		for i := 0; i < 3; i++ {
			if err := tx.Send(can.MustNew(can.ID(0x100+i), []byte{byte(i)})); err != nil {
				t.Fatal(err)
			}
		}
		s.RunUntil(time.Second)
		got := fmt.Sprint(arbTrace(tel))
		if want := "[arb-won tx 100 arb-won tx 101 arb-won tx 102]"; got != want {
			t.Fatalf("arbitration trace = %s, want %s", got, want)
		}
		if st := tx.Stats(); st.ArbLosses != 0 || st.TxFrames != 3 {
			t.Fatalf("lone sender stats = %+v", st)
		}
	})
	t.Run("contenders", func(t *testing.T) {
		s, b := newBus(t)
		tel := telemetry.New(0)
		b.Instrument(tel)
		a := b.Connect("a")
		c := b.Connect("c")
		d := b.Connect("d")
		b.Connect("rx")
		a.Send(can.MustNew(0x7FF, make([]byte, 8))) // occupies the bus first
		a.Send(can.MustNew(0x300, []byte{3}))
		c.Send(can.MustNew(0x050, []byte{1}))
		d.Send(can.MustNew(0x200, []byte{2}))
		s.RunUntil(time.Second)
		got := fmt.Sprint(arbTrace(tel))
		want := "[arb-won a 7ff arb-lost a 050 arb-lost d 050 arb-won c 050 arb-lost a 200 arb-won d 200 arb-won a 300]"
		if got != want {
			t.Fatalf("arbitration trace = %s, want %s", got, want)
		}
		if a.Stats().ArbLosses != 2 || d.Stats().ArbLosses != 1 || c.Stats().ArbLosses != 0 {
			t.Fatalf("arbitration losses a=%d c=%d d=%d, want 2/0/1",
				a.Stats().ArbLosses, c.Stats().ArbLosses, d.Stats().ArbLosses)
		}
	})
}

// txStarts returns "port id@start" for every tx span in the trace.
func txStarts(tel *telemetry.Telemetry) []string {
	var out []string
	for _, e := range tel.Tracer.Events() {
		if e.Kind == telemetry.EvTx {
			out = append(out, fmt.Sprintf("%s %03x@%v", e.Actor, e.ID, e.At))
		}
	}
	return out
}

// TestIdleBusStart checks a send onto an idle bus goes on the wire in the
// sending event, records its uncontended arb-won there, and that sends
// the bus cannot take at once — a second sender in the same event, or a
// reply made while a frame is being delivered — queue and arbitrate when
// the bus frees.
func TestIdleBusStart(t *testing.T) {
	t.Run("same event", func(t *testing.T) {
		s, b := newBus(t)
		tel := telemetry.New(0)
		b.Instrument(tel)
		a, c, d := b.Connect("a"), b.Connect("c"), b.Connect("d")
		b.Connect("rx")
		first := can.MustNew(0x300, []byte{3})
		s.At(time.Millisecond, func() {
			a.Send(first)
			c.Send(can.MustNew(0x050, []byte{1}))
			d.Send(can.MustNew(0x200, []byte{2}))
		})
		s.RunUntil(time.Second)
		if got, want := fmt.Sprint(arbTrace(tel)), "[arb-won a 300 arb-lost d 050 arb-won c 050 arb-won d 200]"; got != want {
			t.Fatalf("arbitration trace = %s, want %s", got, want)
		}
		end := time.Millisecond + b.FrameTime(first)
		want := fmt.Sprint([]string{"a 300@1ms", fmt.Sprintf("c 050@%v", end),
			fmt.Sprintf("d 200@%v", end+b.FrameTime(can.MustNew(0x050, []byte{1})))})
		if got := fmt.Sprint(txStarts(tel)); got != want {
			t.Fatalf("tx starts = %s, want %s", got, want)
		}
		if b.txPending != 0 || b.pendingMask != 0 {
			t.Fatalf("after the run txPending=%d pendingMask=%b, want 0/0", b.txPending, b.pendingMask)
		}
	})
	t.Run("reply during delivery", func(t *testing.T) {
		s, b := newBus(t)
		tel := telemetry.New(0)
		b.Instrument(tel)
		tx, early, late := b.Connect("tx"), b.Connect("early"), b.Connect("late")
		// Both reply inside the delivery of 0x100; 'early' replies first
		// with the higher identifier, so only queueing lets 0x050 win.
		early.SetReceiver(func(m Message) {
			if m.Frame.ID == 0x100 {
				early.Send(can.MustNew(0x300, nil))
			}
		})
		late.SetReceiver(func(m Message) {
			if m.Frame.ID == 0x100 {
				late.Send(can.MustNew(0x050, nil))
			}
		})
		req := can.MustNew(0x100, nil)
		tx.Send(req)
		s.RunUntil(time.Second)
		if got, want := fmt.Sprint(arbTrace(tel)), "[arb-won tx 100 arb-lost early 050 arb-won late 050 arb-won early 300]"; got != want {
			t.Fatalf("arbitration trace = %s, want %s", got, want)
		}
		end := b.FrameTime(req)
		reply := can.MustNew(0x050, nil)
		want := fmt.Sprint([]string{"tx 100@0s", fmt.Sprintf("late 050@%v", end), fmt.Sprintf("early 300@%v", end+b.FrameTime(reply))})
		if got := fmt.Sprint(txStarts(tel)); got != want {
			t.Fatalf("tx starts = %s, want %s", got, want)
		}
	})
}

func TestPerPortFIFO(t *testing.T) {
	s, b := newBus(t)
	tx := b.Connect("tx")
	rx := b.Connect("rx")
	var order []byte
	rx.SetReceiver(func(m Message) { order = append(order, m.Frame.Data[0]) })
	// Same ID, must arrive in send order.
	for i := byte(1); i <= 5; i++ {
		tx.Send(can.MustNew(0x123, []byte{i}))
	}
	s.RunUntil(time.Second)
	for i, v := range order {
		if v != byte(i+1) {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestSendInvalidFrame(t *testing.T) {
	_, b := newBus(t)
	tx := b.Connect("tx")
	err := tx.Send(can.Frame{ID: 0x900})
	if !errors.Is(err, can.ErrIDRange) {
		t.Fatalf("err = %v, want ErrIDRange", err)
	}
	if tx.Stats().Dropped != 1 {
		t.Fatal("dropped counter not bumped")
	}
}

func TestTxQueueFull(t *testing.T) {
	_, b := newBus(t, WithTxQueueCap(2))
	tx := b.Connect("tx")
	// First Send starts transmitting immediately (leaves the queue), so cap
	// 2 admits three sends before overflowing.
	for i := 0; i < 3; i++ {
		if err := tx.Send(can.MustNew(0x1, nil)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := tx.Send(can.MustNew(0x1, nil)); !errors.Is(err, ErrTxQueueFull) {
		t.Fatalf("err = %v, want ErrTxQueueFull", err)
	}
}

func TestDetachedPortCannotSend(t *testing.T) {
	_, b := newBus(t)
	tx := b.Connect("tx")
	tx.Detach()
	if err := tx.Send(can.MustNew(0x1, nil)); !errors.Is(err, ErrDetached) {
		t.Fatalf("err = %v, want ErrDetached", err)
	}
}

func TestDetachedPortDoesNotReceive(t *testing.T) {
	s, b := newBus(t)
	tx := b.Connect("tx")
	rx := b.Connect("rx")
	count := 0
	rx.SetReceiver(func(Message) { count++ })
	rx.Detach()
	tx.Send(can.MustNew(0x1, nil))
	s.RunUntil(time.Second)
	if count != 0 {
		t.Fatal("detached port received a frame")
	}
}

func TestReattachRestoresReception(t *testing.T) {
	s, b := newBus(t)
	tx := b.Connect("tx")
	rx := b.Connect("rx")
	count := 0
	rx.SetReceiver(func(Message) { count++ })
	rx.Detach()
	rx.Reattach()
	tx.Send(can.MustNew(0x1, nil))
	s.RunUntil(time.Second)
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
}

func TestTapSeesAllTraffic(t *testing.T) {
	s, b := newBus(t)
	a := b.Connect("a")
	c := b.Connect("c")
	var tapped []string
	b.Tap(func(m Message) { tapped = append(tapped, m.Origin) })
	a.Send(can.MustNew(0x10, nil))
	c.Send(can.MustNew(0x20, nil))
	s.RunUntil(time.Second)
	if len(tapped) != 2 {
		t.Fatalf("tap saw %d frames, want 2", len(tapped))
	}
}

func TestCorruptorDestroysFrames(t *testing.T) {
	s, b := newBus(t)
	tx := b.Connect("tx")
	rx := b.Connect("rx")
	count := 0
	rx.SetReceiver(func(Message) { count++ })
	n := 0
	b.SetInterceptor(func(can.Frame) TxAction {
		n++
		if n%2 == 1 { // corrupt every other frame
			return TxCorrupt
		}
		return TxDeliver
	})
	for i := 0; i < 10; i++ {
		tx.Send(can.MustNew(0x1, []byte{byte(i)}))
	}
	s.RunUntil(time.Second)
	if count != 5 {
		t.Fatalf("received %d frames, want 5", count)
	}
	if b.Stats().FramesCorrupted != 5 {
		t.Fatalf("corrupted = %d, want 5", b.Stats().FramesCorrupted)
	}
}

func TestErrorCountersAndBusOff(t *testing.T) {
	s, b := newBus(t)
	tx := b.Connect("tx")
	rx := b.Connect("rx")
	rx.SetReceiver(func(Message) {})
	b.SetInterceptor(func(can.Frame) TxAction { return TxCorrupt })

	// Each corrupted TX adds 8 to TEC; bus-off at 256 => 32 frames.
	for i := 0; i < 40; i++ {
		if err := tx.Send(can.MustNew(0x1, nil)); err != nil {
			break
		}
		s.RunUntil(s.Now() + 10*time.Millisecond)
	}
	if tx.State() != BusOff {
		tec, _ := tx.ErrorCounters()
		t.Fatalf("state = %v (tec=%d), want bus-off", tx.State(), tec)
	}
	if err := tx.Send(can.MustNew(0x1, nil)); !errors.Is(err, ErrBusOff) {
		t.Fatalf("err = %v, want ErrBusOff", err)
	}
	// Recovery via reset.
	b.SetInterceptor(nil)
	tx.ResetErrors()
	if tx.State() != ErrorActive {
		t.Fatalf("state after reset = %v", tx.State())
	}
	if err := tx.Send(can.MustNew(0x1, nil)); err != nil {
		t.Fatalf("send after reset: %v", err)
	}
}

func TestErrorPassiveTransition(t *testing.T) {
	s, b := newBus(t)
	tx := b.Connect("tx")
	b.Connect("rx").SetReceiver(func(Message) {})
	b.SetInterceptor(func(can.Frame) TxAction { return TxCorrupt })
	for i := 0; i < 16; i++ { // 16*8 = 128 => error passive
		tx.Send(can.MustNew(0x1, nil))
		s.RunUntil(s.Now() + 10*time.Millisecond)
	}
	if tx.State() != ErrorPassive {
		t.Fatalf("state = %v, want error-passive", tx.State())
	}
}

func TestSuccessfulTrafficHealsCounters(t *testing.T) {
	s, b := newBus(t)
	tx := b.Connect("tx")
	b.Connect("rx").SetReceiver(func(Message) {})
	b.SetInterceptor(func(can.Frame) TxAction { return TxCorrupt })
	for i := 0; i < 4; i++ {
		tx.Send(can.MustNew(0x1, nil))
		s.RunUntil(s.Now() + 10*time.Millisecond)
	}
	tec, _ := tx.ErrorCounters()
	if tec != 32 {
		t.Fatalf("tec = %d, want 32", tec)
	}
	b.SetInterceptor(nil)
	for i := 0; i < 10; i++ {
		tx.Send(can.MustNew(0x1, nil))
		s.RunUntil(s.Now() + 10*time.Millisecond)
	}
	tec, _ = tx.ErrorCounters()
	if tec != 22 {
		t.Fatalf("tec = %d after healing, want 22", tec)
	}
}

func TestBusLoad(t *testing.T) {
	s, b := newBus(t)
	tx := b.Connect("tx")
	b.Connect("rx").SetReceiver(func(Message) {})
	f := can.MustNew(0x100, make([]byte, 8))
	frameTime := b.FrameTime(f)
	// Send 100 back-to-back frames, then idle for the same duration.
	for i := 0; i < 100; i++ {
		tx.Send(f)
	}
	s.RunUntil(200 * frameTime)
	load := b.Load()
	if load < 0.45 || load > 0.55 {
		t.Fatalf("load = %f, want ~0.5", load)
	}
}

func TestStatsCounters(t *testing.T) {
	s, b := newBus(t)
	tx := b.Connect("tx")
	rx := b.Connect("rx")
	rx.SetReceiver(func(Message) {})
	for i := 0; i < 7; i++ {
		tx.Send(can.MustNew(0x1, []byte{byte(i)}))
	}
	s.RunUntil(time.Second)
	if got := b.Stats().FramesDelivered; got != 7 {
		t.Fatalf("FramesDelivered = %d, want 7", got)
	}
	if got := tx.Stats().TxFrames; got != 7 {
		t.Fatalf("TxFrames = %d, want 7", got)
	}
	if got := rx.Stats().RxFrames; got != 7 {
		t.Fatalf("RxFrames = %d, want 7", got)
	}
}

func TestReceiverMaySendInResponse(t *testing.T) {
	s, b := newBus(t)
	tx := b.Connect("tx")
	echo := b.Connect("echo")
	echo.SetReceiver(func(m Message) {
		if m.Frame.ID == 0x100 {
			echo.Send(can.MustNew(0x200, m.Frame.Data[:m.Frame.Len]))
		}
	})
	var got []can.ID
	tx.SetReceiver(func(m Message) { got = append(got, m.Frame.ID) })
	tx.Send(can.MustNew(0x100, []byte{0x42}))
	s.RunUntil(time.Second)
	if len(got) != 1 || got[0] != 0x200 {
		t.Fatalf("got = %v, want [0x200]", got)
	}
}

func TestResponseArbitratesWithConcurrentQueues(t *testing.T) {
	s, b := newBus(t)
	tx := b.Connect("tx")
	early := b.Connect("early")
	late := b.Connect("late")
	rx := b.Connect("rx")
	var order []can.ID
	rx.SetReceiver(func(m Message) { order = append(order, m.Frame.ID) })
	// 'early' responds with a high ID, 'late' with a low ID. Both respond to
	// the same delivery; the low ID must still win the next arbitration.
	early.SetReceiver(func(m Message) {
		if m.Frame.ID == 0x100 {
			early.Send(can.MustNew(0x300, nil))
		}
	})
	late.SetReceiver(func(m Message) {
		if m.Frame.ID == 0x100 {
			late.Send(can.MustNew(0x050, nil))
		}
	})
	tx.Send(can.MustNew(0x100, nil))
	s.RunUntil(time.Second)
	want := []can.ID{0x100, 0x050, 0x300}
	if len(order) != 3 || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestNodeStateString(t *testing.T) {
	if ErrorActive.String() != "error-active" || BusOff.String() != "bus-off" {
		t.Fatal("NodeState.String broken")
	}
	if NodeState(0).String() == "" {
		t.Fatal("unknown state string empty")
	}
}

func BenchmarkBusThroughput(b *testing.B) {
	s := clock.New()
	bb := New(s)
	tx := bb.Connect("tx")
	bb.Connect("rx").SetReceiver(func(Message) {})
	f := can.MustNew(0x123, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tx.Send(f)
		s.Step()
	}
}

func TestWithBitrateScalesLatency(t *testing.T) {
	run := func(bps int) time.Duration {
		s := clock.New()
		b := New(s, WithBitrate(bps))
		tx := b.Connect("tx")
		rx := b.Connect("rx")
		var at time.Duration
		rx.SetReceiver(func(m Message) { at = m.Time })
		tx.Send(can.MustNew(0x555, []byte{0x55, 0x55}))
		s.RunUntil(time.Second)
		return at
	}
	slow := run(125_000)
	fast := run(500_000)
	if slow != fast*4 {
		t.Fatalf("latency at 125k = %v, at 500k = %v; want exact 4x", slow, fast)
	}
}

func TestFrameTimeAccessor(t *testing.T) {
	s := clock.New()
	b := New(s)
	f := can.MustNew(0x100, []byte{1, 2})
	want := time.Duration(can.WireBitsWithIFS(f)) * time.Second / DefaultBitrate
	if got := b.FrameTime(f); got != want {
		t.Fatalf("FrameTime = %v, want %v", got, want)
	}
}
