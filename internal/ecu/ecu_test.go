package ecu

import (
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/clock"
)

func rig(t *testing.T) (*clock.Scheduler, *bus.Bus, *ECU, *bus.Port) {
	t.Helper()
	s := clock.New()
	b := bus.New(s)
	e := New("dut", s, b.Connect("dut"))
	peer := b.Connect("peer")
	return s, b, e, peer
}

func TestHandleRoutesById(t *testing.T) {
	s, _, e, peer := rig(t)
	var got []can.ID
	e.Handle(0x100, func(m bus.Message) { got = append(got, m.Frame.ID) })
	peer.Send(can.MustNew(0x100, nil))
	peer.Send(can.MustNew(0x200, nil))
	s.RunUntil(time.Second)
	if len(got) != 1 || got[0] != 0x100 {
		t.Fatalf("got = %v", got)
	}
}

func TestHandleAllSeesEverything(t *testing.T) {
	s, _, e, peer := rig(t)
	count := 0
	e.HandleAll(func(bus.Message) { count++ })
	peer.Send(can.MustNew(0x100, nil))
	peer.Send(can.MustNew(0x200, nil))
	s.RunUntil(time.Second)
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

func TestHandlerOrderPerIDThenCatchAll(t *testing.T) {
	s, _, e, peer := rig(t)
	var order []string
	e.Handle(0x1, func(bus.Message) { order = append(order, "id1") })
	e.Handle(0x1, func(bus.Message) { order = append(order, "id2") })
	e.HandleAll(func(bus.Message) { order = append(order, "all") })
	peer.Send(can.MustNew(0x1, nil))
	s.RunUntil(time.Second)
	want := []string{"id1", "id2", "all"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("order = %v", order)
	}
}

func TestPeriodicTransmission(t *testing.T) {
	s, _, e, peer := rig(t)
	count := 0
	peer.SetReceiver(func(bus.Message) { count++ })
	e.Periodic(10*time.Millisecond, func() {
		e.Send(can.MustNew(0x110, []byte{1}))
	})
	// Run a little past 100 ms so the frame queued at t=100ms finishes its
	// on-wire transmission and is delivered.
	s.RunUntil(101 * time.Millisecond)
	if count != 10 {
		t.Fatalf("received %d periodic frames, want 10", count)
	}
}

func TestPowerOffStopsPeriodicsAndReception(t *testing.T) {
	s, _, e, peer := rig(t)
	sent := 0
	e.Periodic(10*time.Millisecond, func() { sent++ })
	received := 0
	e.Handle(0x5, func(bus.Message) { received++ })
	s.RunUntil(25 * time.Millisecond)
	e.PowerOff()
	peer.Send(can.MustNew(0x5, nil))
	s.RunUntil(100 * time.Millisecond)
	if sent != 2 {
		t.Fatalf("periodic ran %d times, want 2", sent)
	}
	if received != 0 {
		t.Fatal("powered-off ECU received a frame")
	}
	if err := e.Send(can.MustNew(0x1, nil)); err == nil {
		t.Fatal("powered-off ECU transmitted")
	}
}

func TestPowerOnRestoresOperation(t *testing.T) {
	s, _, e, peer := rig(t)
	received := 0
	e.Handle(0x5, func(bus.Message) { received++ })
	sent := 0
	e.Periodic(10*time.Millisecond, func() { sent++ })
	e.PowerOff()
	s.RunUntil(50 * time.Millisecond)
	e.PowerOn()
	peer.Send(can.MustNew(0x5, nil))
	s.RunUntil(100 * time.Millisecond)
	if received != 1 {
		t.Fatalf("received = %d, want 1", received)
	}
	if sent != 5 { // 50ms powered window / 10ms
		t.Fatalf("periodic ran %d times, want 5", sent)
	}
}

func TestOnPowerOnCallback(t *testing.T) {
	_, _, e, _ := rig(t)
	calls := 0
	e.OnPowerOn(func() { calls++ })
	e.PowerCycle()
	e.PowerCycle()
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
}

func TestPowerCycleClearsMILs(t *testing.T) {
	_, _, e, _ := rig(t)
	e.SetMIL("ENGINE", true)
	e.SetMIL("ABS", true)
	if len(e.MILs()) != 2 {
		t.Fatalf("MILs = %v", e.MILs())
	}
	e.PowerCycle()
	if len(e.MILs()) != 0 {
		t.Fatalf("MILs after cycle = %v", e.MILs())
	}
}

func TestMILAccessors(t *testing.T) {
	_, _, e, _ := rig(t)
	e.SetMIL("B", true)
	e.SetMIL("A", true)
	e.SetMIL("B", false)
	if e.MILOn("B") || !e.MILOn("A") {
		t.Fatal("MILOn wrong")
	}
	if mils := e.MILs(); len(mils) != 1 || mils[0] != "A" {
		t.Fatalf("MILs = %v", mils)
	}
}

func TestMILsSorted(t *testing.T) {
	_, _, e, _ := rig(t)
	for _, n := range []string{"z", "a", "m"} {
		e.SetMIL(n, true)
	}
	mils := e.MILs()
	if mils[0] != "a" || mils[1] != "m" || mils[2] != "z" {
		t.Fatalf("MILs not sorted: %v", mils)
	}
}

func TestNVReadCopies(t *testing.T) {
	_, _, e, _ := rig(t)
	e.NVWrite("k", []byte{1, 2})
	v, _ := e.NVRead("k")
	v[0] = 99
	v2, _ := e.NVRead("k")
	if v2[0] != 1 {
		t.Fatal("NVRead returned aliased storage")
	}
	e.NVDelete("k")
	if _, ok := e.NVRead("k"); ok {
		t.Fatal("NVDelete ineffective")
	}
}

func TestChimesSurvivePowerCycle(t *testing.T) {
	_, _, e, _ := rig(t)
	e.Chime()
	e.Chime()
	e.PowerCycle()
	if e.Chimes() != 2 {
		t.Fatalf("Chimes = %d, want 2", e.Chimes())
	}
}

func TestFaultLog(t *testing.T) {
	s, _, e, _ := rig(t)
	s.RunUntil(5 * time.Millisecond)
	e.LogFault("U0100", "lost communication")
	faults := e.Faults()
	if len(faults) != 1 || faults[0].Code != "U0100" {
		t.Fatalf("faults = %v", faults)
	}
	if faults[0].Time != 5*time.Millisecond {
		t.Fatalf("fault time = %v", faults[0].Time)
	}
	// Returned slice is a copy.
	faults[0].Code = "X"
	if e.Faults()[0].Code != "U0100" {
		t.Fatal("Faults returned aliased storage")
	}
}

func TestDoublePowerOffOnIdempotent(t *testing.T) {
	s, _, e, peer := rig(t)
	received := 0
	e.Handle(0x5, func(bus.Message) { received++ })
	e.PowerOff()
	e.PowerOff()
	e.PowerOn()
	e.PowerOn()
	peer.Send(can.MustNew(0x5, nil))
	s.RunUntil(time.Second)
	if received != 1 {
		t.Fatalf("received = %d, want 1", received)
	}
}

func TestPeriodicRegisteredWhilePoweredOff(t *testing.T) {
	s, _, e, _ := rig(t)
	e.PowerOff()
	runs := 0
	e.Periodic(10*time.Millisecond, func() { runs++ })
	s.RunUntil(50 * time.Millisecond)
	if runs != 0 {
		t.Fatal("periodic ran while powered off")
	}
	e.PowerOn()
	s.RunUntil(100 * time.Millisecond)
	if runs != 5 {
		t.Fatalf("runs = %d, want 5", runs)
	}
}

func TestAccessors(t *testing.T) {
	s, _, e, _ := rig(t)
	if e.Name() != "dut" {
		t.Fatalf("Name = %q", e.Name())
	}
	if e.Scheduler() != s {
		t.Fatal("Scheduler accessor wrong")
	}
	if e.Port() == nil {
		t.Fatal("Port accessor nil")
	}
	if !e.Powered() {
		t.Fatal("fresh ECU not powered")
	}
	s.RunUntil(7 * time.Millisecond)
	if e.Now() != 7*time.Millisecond {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestNilArgumentPanics(t *testing.T) {
	_, _, e, _ := rig(t)
	for name, fn := range map[string]func(){
		"Handle":    func() { e.Handle(1, nil) },
		"HandleAll": func() { e.HandleAll(nil) },
		"Periodic":  func() { e.Periodic(time.Second, nil) },
		"OnPowerOn": func() { e.OnPowerOn(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(nil) did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestNewPanicsOnNilDeps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(nil, nil) did not panic")
		}
	}()
	New("x", nil, nil)
}

func TestNVReadMissing(t *testing.T) {
	_, _, e, _ := rig(t)
	if _, ok := e.NVRead("missing"); ok {
		t.Fatal("missing NV key found")
	}
}
