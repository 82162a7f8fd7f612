package ecu

import (
	"strings"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/can"
)

func TestHandlerPanicCrashesECUNotScheduler(t *testing.T) {
	s, _, e, peer := rig(t)
	e.Handle(0x100, func(bus.Message) { panic("boom") })

	peer.Send(can.MustNew(0x100, nil))
	s.RunUntil(time.Second) // must not panic through the scheduler

	if !e.Crashed() {
		t.Fatal("ECU not crashed after handler panic")
	}
	if e.CrashDetail() != "boom" {
		t.Fatalf("crash detail = %q, want boom", e.CrashDetail())
	}
	if e.Powered() {
		t.Fatal("crashed ECU still powered")
	}
	faults := e.Faults()
	if len(faults) != 1 || !strings.Contains(faults[0].Detail, "boom") {
		t.Fatalf("fault log = %+v, want one crash entry", faults)
	}
	// A crashed ECU is deaf and cannot transmit.
	if err := e.Send(can.MustNew(0x1, nil)); err == nil {
		t.Fatal("Send on crashed ECU succeeded")
	}
	// PowerOn must not resurrect it.
	e.PowerOn()
	if e.Powered() {
		t.Fatal("PowerOn resurrected a crashed ECU")
	}
}

func TestPeriodicPanicCrashesECU(t *testing.T) {
	s, _, e, _ := rig(t)
	e.Periodic(10*time.Millisecond, func() { panic("tick bug") })
	s.RunUntil(time.Second)
	if !e.Crashed() || e.CrashDetail() != "tick bug" {
		t.Fatalf("crashed=%v detail=%q", e.Crashed(), e.CrashDetail())
	}
}

func TestInjectPanicArmsNextDispatch(t *testing.T) {
	s, _, e, peer := rig(t)
	handled := 0
	e.Handle(0x100, func(bus.Message) { handled++ })

	peer.Send(can.MustNew(0x100, nil))
	s.RunUntil(s.Now() + 10*time.Millisecond)
	if handled != 1 || e.Crashed() {
		t.Fatalf("baseline dispatch: handled=%d crashed=%v", handled, e.Crashed())
	}

	e.InjectPanic("injected fault")
	peer.Send(can.MustNew(0x100, nil))
	s.RunUntil(s.Now() + 10*time.Millisecond)
	if handled != 1 {
		t.Fatalf("handler ran despite armed panic: handled=%d", handled)
	}
	if !e.Crashed() || e.CrashDetail() != "injected fault" {
		t.Fatalf("crashed=%v detail=%q", e.Crashed(), e.CrashDetail())
	}
}

func TestInjectStallDropsFramesAndSkipsTicks(t *testing.T) {
	s, _, e, peer := rig(t)
	handled, ticks := 0, 0
	e.Handle(0x100, func(bus.Message) { handled++ })
	e.Periodic(10*time.Millisecond, func() { ticks++ })

	e.InjectStall(100 * time.Millisecond)
	if !e.Stalled() {
		t.Fatal("not stalled after InjectStall")
	}
	peer.Send(can.MustNew(0x100, nil))
	s.RunUntil(95 * time.Millisecond)
	if handled != 0 {
		t.Fatalf("stalled ECU handled %d frames", handled)
	}
	if ticks != 0 {
		t.Fatalf("stalled ECU ran %d periodic ticks", ticks)
	}

	// After the window the application resumes: frames dispatch and
	// periodics run again (skipped ticks are lost, not replayed).
	s.RunUntil(200 * time.Millisecond)
	if e.Stalled() {
		t.Fatal("still stalled after the window")
	}
	peer.Send(can.MustNew(0x100, nil))
	s.RunUntil(250 * time.Millisecond)
	if handled != 1 {
		t.Fatalf("handled = %d after stall ended, want 1", handled)
	}
	if ticks == 0 {
		t.Fatal("periodics never resumed after stall")
	}
}

func TestStallExtendsNotShortens(t *testing.T) {
	s, _, e, _ := rig(t)
	e.InjectStall(100 * time.Millisecond)
	e.InjectStall(10 * time.Millisecond) // shorter overlap must not shorten
	s.RunUntil(50 * time.Millisecond)
	if !e.Stalled() {
		t.Fatal("overlapping shorter stall truncated the window")
	}
	e.InjectStall(100 * time.Millisecond) // extends past 150 ms
	s.RunUntil(120 * time.Millisecond)
	if !e.Stalled() {
		t.Fatal("overlapping longer stall did not extend the window")
	}
}
