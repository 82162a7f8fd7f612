package ecu

import (
	"strings"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/telemetry"
)

func TestHandlerPanicCrashesECUNotScheduler(t *testing.T) {
	s, _, e, peer := rig(t)
	e.Handle(0x100, func(bus.Message) { panic("boom") })

	peer.Send(can.MustNew(0x100, nil))
	s.RunUntil(time.Second) // must not panic through the scheduler

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
	if e.CrashDetail() != "tick bug" {
		t.Fatalf("crash detail = %q", e.CrashDetail())
	}
}

func TestInjectPanicArmsNextDispatch(t *testing.T) {
	s, _, e, peer := rig(t)
	handled := 0
	e.Handle(0x100, func(bus.Message) { handled++ })

	peer.Send(can.MustNew(0x100, nil))
	s.RunUntil(s.Now() + 10*time.Millisecond)
	if handled != 1 || e.CrashDetail() != "" {
		t.Fatalf("baseline dispatch: handled=%d crash detail=%q", handled, e.CrashDetail())
	}

	e.InjectPanic("injected fault")
	peer.Send(can.MustNew(0x100, nil))
	s.RunUntil(s.Now() + 10*time.Millisecond)
	if handled != 1 {
		t.Fatalf("handler ran despite armed panic: handled=%d", handled)
	}
	if e.CrashDetail() != "injected fault" {
		t.Fatalf("crash detail = %q", e.CrashDetail())
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

// dispatchEvents counts the ECU dispatch records in the trace.
func dispatchEvents(tel *telemetry.Telemetry) int {
	n := 0
	for _, ev := range tel.Tracer.Events() {
		if ev.Kind == telemetry.EvDispatch {
			n++
		}
	}
	return n
}

// TestInjectPanicCrashesWithoutHandler arms a panic on an ECU that has no
// handler for the next frame's identifier: the frame must still be
// counted and traced, and the armed panic must still crash the ECU.
func TestInjectPanicCrashesWithoutHandler(t *testing.T) {
	s, _, e, peer := rig(t)
	tel := telemetry.New(64)
	e.Instrument(tel)
	handled := 0
	e.Handle(0x100, func(bus.Message) { handled++ })

	peer.Send(can.MustNew(0x200, nil)) // no handler: counted, traced, dropped
	s.RunUntil(s.Now() + 10*time.Millisecond)
	if e.CrashDetail() != "" || e.mDispatched.Value() != 1 || dispatchEvents(tel) != 1 {
		t.Fatalf("handler-less frame: crash detail=%q dispatched=%d traced=%d",
			e.CrashDetail(), e.mDispatched.Value(), dispatchEvents(tel))
	}

	e.InjectPanic("armed")
	peer.Send(can.MustNew(0x200, nil))
	s.RunUntil(s.Now() + 10*time.Millisecond)
	if e.CrashDetail() != "armed" {
		t.Fatalf("crash detail = %q, want a crash on the handler-less frame", e.CrashDetail())
	}
	if handled != 0 || e.mDispatched.Value() != 2 || dispatchEvents(tel) != 2 {
		t.Fatalf("handled=%d dispatched=%d traced=%d, want 0/2/2", handled, e.mDispatched.Value(), dispatchEvents(tel))
	}
}

// TestStalledECUNeitherCountsNorTraces checks a stalled ECU loses frames
// before the dispatch counter and trace record, handled or not, and
// counts and traces a handler-less frame again once the stall ends.
func TestStalledECUNeitherCountsNorTraces(t *testing.T) {
	s, _, e, peer := rig(t)
	tel := telemetry.New(64)
	e.Instrument(tel)
	e.Handle(0x100, func(bus.Message) {})

	e.InjectStall(50 * time.Millisecond)
	peer.Send(can.MustNew(0x100, nil))
	peer.Send(can.MustNew(0x200, nil))
	s.RunUntil(40 * time.Millisecond)
	if n := e.mDispatched.Value(); n != 0 {
		t.Fatalf("stalled ECU counted %d dispatches", n)
	}
	if n := dispatchEvents(tel); n != 0 {
		t.Fatalf("stalled ECU traced %d dispatches", n)
	}

	s.RunUntil(60 * time.Millisecond)
	peer.Send(can.MustNew(0x200, nil))
	s.RunUntil(70 * time.Millisecond)
	if e.mDispatched.Value() != 1 || dispatchEvents(tel) != 1 {
		t.Fatalf("after the stall: dispatched=%d traced=%d, want 1/1", e.mDispatched.Value(), dispatchEvents(tel))
	}
}
