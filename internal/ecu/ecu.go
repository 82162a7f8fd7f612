// Package ecu provides the runtime skeleton shared by every simulated
// Electronic Control Unit: frame dispatch, periodic transmission schedules,
// power cycling with non-volatile (NVRAM) storage, malfunction indicator
// lamps (MILs), audible warnings, fault logging, and UDS-style operating
// modes.
//
// The power-cycle semantics matter for reproducing Fig 9: MILs are
// volatile (a power cycle clears them, as the paper observed on the real
// instrument cluster), while NVRAM persists (which is why the cluster's
// "crash" display would not clear).
package ecu

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/clock"
	"repro/internal/telemetry"
)

// Fault is one entry in an ECU's fault log.
type Fault struct {
	// Time is the virtual instant the fault was raised.
	Time time.Duration
	// Code is a short machine-readable fault code (e.g. "U0100").
	Code string
	// Detail is a human-readable description.
	Detail string
}

// Handler consumes a delivered frame.
type Handler func(bus.Message)

// handlerEntry pairs one arbitration identifier with its handler chain.
// Dispatch is a linear scan: ECUs register a handful of identifiers, so
// the scan beats a map lookup (no hashing) on the per-frame hot path.
type handlerEntry struct {
	id can.ID
	hs []Handler
}

// ECU is the base runtime for a simulated control unit. Concrete ECUs
// (cluster, BCM, engine...) embed or wrap it, register handlers and
// periodic transmitters, and use Send to talk on the bus.
type ECU struct {
	name  string
	sched *clock.Scheduler
	port  *bus.Port

	handlers []handlerEntry
	catchAll []Handler

	periodics []*clock.Periodic
	onPowerOn []func()

	// Storage and the fault log are allocated once and emptied in place
	// by Reset, so a reset allocates nothing.
	nvram  map[string][]byte
	mils   map[string]bool
	faults []Fault

	ecuRun

	// Telemetry handles; nil (no-op) until Instrument is called.
	tel         *telemetry.Telemetry
	mDispatched *telemetry.Counter
	mFaults     *telemetry.Counter
	mPowerCycle *telemetry.Counter
	mCrashes    *telemetry.Counter
	sDispatch   telemetry.Site
}

// ecuRun is the ECU's per-trial state. Reset assigns it whole, so a
// cold build (New calls Reset) and a warm reset start identically.
type ecuRun struct {
	powered bool
	chimes  uint64

	// Crash/stall fault state. A crashed ECU is off the bus until Reset;
	// a stalled ECU drops frames and skips periodic work until the stall
	// window elapses.
	crashed      bool
	crashDetail  string
	stalledUntil time.Duration
	panicNext    string // armed InjectPanic detail; "" when disarmed
}

// New creates an ECU bound to a bus port. The ECU starts powered on,
// receiving frames.
func New(name string, sched *clock.Scheduler, port *bus.Port) *ECU {
	if sched == nil || port == nil {
		panic("ecu: nil scheduler or port")
	}
	e := &ECU{
		name:  name,
		sched: sched,
		port:  port,
		nvram: make(map[string][]byte),
		mils:  make(map[string]bool),
	}
	port.SetReceiver(e.dispatch)
	e.Reset()
	return e
}

// Name returns the ECU name.
func (e *ECU) Name() string { return e.name }

// Instrument attaches the ECU to the telemetry plane: a handler-dispatch
// counter and trace event per received frame, plus fault and power-cycle
// accounting. Passing nil is a no-op; the default ECU is uninstrumented
// and pays nothing.
func (e *ECU) Instrument(t *telemetry.Telemetry) {
	if t == nil {
		return
	}
	e.tel = t
	e.sDispatch = t.Trc().Site(telemetry.EvDispatch, e.name, "dispatch")
	lbl := telemetry.Label{Key: "ecu", Value: e.name}
	e.mDispatched = t.Registry.Counter("ecu_frames_dispatched_total", "Frames routed to this ECU's handlers.", lbl)
	e.mFaults = t.Registry.Counter("ecu_faults_total", "Fault-log entries raised by this ECU.", lbl)
	e.mPowerCycle = t.Registry.Counter("ecu_power_cycles_total", "Power-off/power-on transitions of this ECU.", lbl)
	e.mCrashes = t.Registry.Counter("ecu_crashes_total", "Handler panics recovered by crashing this ECU.", lbl)
}

// Scheduler returns the virtual clock the ECU runs on.
func (e *ECU) Scheduler() *clock.Scheduler { return e.sched }

// Port returns the ECU's bus attachment.
func (e *ECU) Port() *bus.Port { return e.port }

// Now returns the current virtual time.
func (e *ECU) Now() time.Duration { return e.sched.Now() }

// Powered reports whether the ECU is currently powered.
func (e *ECU) Powered() bool { return e.powered }

// Handle registers a handler for one arbitration identifier. Multiple
// handlers per identifier run in registration order.
func (e *ECU) Handle(id can.ID, h Handler) {
	if h == nil {
		panic("ecu: nil handler")
	}
	for i := range e.handlers {
		if e.handlers[i].id == id {
			e.handlers[i].hs = append(e.handlers[i].hs, h)
			return
		}
	}
	e.handlers = append(e.handlers, handlerEntry{id: id, hs: []Handler{h}})
}

// HandleAll registers a handler that sees every received frame after the
// per-identifier handlers. This is the code path malformed fuzz traffic
// reaches on ECUs that parse more than they should.
func (e *ECU) HandleAll(h Handler) {
	if h == nil {
		panic("ecu: nil handler")
	}
	e.catchAll = append(e.catchAll, h)
}

// Periodic registers fn to run every interval while the ECU is powered.
// Periodic schedules restart from phase zero after a power cycle.
func (e *ECU) Periodic(interval time.Duration, fn func()) {
	if fn == nil {
		panic("ecu: nil periodic")
	}
	p := e.sched.NewPeriodic(interval, func() {
		if !e.powered || e.crashed || e.sched.Now() < e.stalledUntil {
			return // stalled application: the tick is skipped, not deferred
		}
		defer e.guard()
		fn()
	})
	e.periodics = append(e.periodics, p)
	if e.powered {
		p.Start()
	}
}

// OnPowerOn registers a callback invoked each time the ECU powers up
// (including the initial registration if currently powered: the callback is
// NOT invoked immediately; callers run initial logic themselves).
func (e *ECU) OnPowerOn(fn func()) {
	if fn == nil {
		panic("ecu: nil callback")
	}
	e.onPowerOn = append(e.onPowerOn, fn)
}

// Send transmits a frame. A powered-off ECU cannot transmit.
func (e *ECU) Send(f can.Frame) error {
	if !e.powered {
		return fmt.Errorf("ecu %s: powered off", e.name)
	}
	if err := e.port.Send(f); err != nil {
		return fmt.Errorf("ecu %s: %w", e.name, err)
	}
	return nil
}

// dispatch routes a received frame to handlers. Every frame a powered,
// running ECU receives is counted and traced; most fuzz frames carry an
// identifier no handler wants, and those stop there, before the panic
// guard is deferred.
func (e *ECU) dispatch(m bus.Message) {
	if !e.powered || e.crashed {
		return
	}
	if e.sched.Now() < e.stalledUntil {
		return // wedged application task: the frame is lost
	}
	e.mDispatched.Inc()
	e.tel.Trc().Rec(e.sDispatch, e.sched.Now(), 0, uint32(m.Frame.ID), 0)
	var hs []Handler
	for i := range e.handlers {
		if e.handlers[i].id == m.Frame.ID {
			hs = e.handlers[i].hs
			break
		}
	}
	if hs == nil && e.catchAll == nil && e.panicNext == "" {
		return
	}
	e.run(m, hs)
}

// run hands a frame to its handlers and then the catch-all ones. Handler
// panics do not propagate into the simulation loop: the guard converts
// them into an ECU crash (node off the bus, fault logged) so the campaign
// can observe the failure and keep running.
func (e *ECU) run(m bus.Message, hs []Handler) {
	defer e.guard()
	if e.panicNext != "" {
		detail := e.panicNext
		e.panicNext = ""
		panic(detail)
	}
	for _, h := range hs {
		h(m)
	}
	for _, h := range e.catchAll {
		h(m)
	}
}

// guard recovers a panicking handler or periodic by crashing the ECU
// instead of unwinding through the scheduler.
func (e *ECU) guard() {
	if r := recover(); r != nil {
		e.crash(fmt.Sprint(r))
	}
}

// crash takes the ECU down after an unrecovered software fault: the fault
// is logged (the log survives, as the tester's record), the node leaves the
// bus. The ECU stays down until Reset.
func (e *ECU) crash(detail string) {
	if e.crashed {
		return
	}
	e.crashed = true
	e.crashDetail = detail
	e.LogFault("U3000", "software crash: "+detail)
	e.mCrashes.Inc()
	if e.tel != nil {
		e.tel.Emit(telemetry.Event{
			At: e.sched.Now(), Kind: telemetry.EvFault,
			Actor: e.name, Name: "ecu-crash", Detail: detail,
		})
	}
	e.PowerOff()
}

// CrashDetail returns the panic value of the crash that took the ECU down
// ("" when not crashed).
func (e *ECU) CrashDetail() string { return e.crashDetail }

// InjectStall wedges the ECU's application for d: received frames are lost
// and periodic work is skipped until the window elapses. Overlapping stalls
// extend the window.
func (e *ECU) InjectStall(d time.Duration) {
	if d <= 0 {
		return
	}
	if until := e.sched.Now() + d; until > e.stalledUntil {
		e.stalledUntil = until
	}
}

// Stalled reports whether the ECU is currently inside a stall window.
func (e *ECU) Stalled() bool { return e.sched.Now() < e.stalledUntil }

// InjectPanic arms a panic in the ECU's next frame dispatch, exercising the
// crash-recovery path exactly as a latent handler bug would.
func (e *ECU) InjectPanic(detail string) {
	if detail == "" {
		detail = "injected panic"
	}
	e.panicNext = detail
}

// PowerOff halts the ECU: periodic transmissions stop, the port detaches,
// MILs extinguish. NVRAM persists.
func (e *ECU) PowerOff() {
	if !e.powered {
		return
	}
	e.powered = false
	e.mPowerCycle.Inc()
	if e.tel != nil {
		e.tel.Emit(telemetry.Event{
			At: e.sched.Now(), Kind: telemetry.EvCustom,
			Actor: e.name, Name: "power-off",
		})
	}
	for _, p := range e.periodics {
		p.Stop()
	}
	e.port.Detach()
	e.mils = make(map[string]bool)
}

// PowerOn restores the ECU after PowerOff: the port reattaches (clearing
// bus error state, as a controller reset does), periodic schedules restart,
// and OnPowerOn callbacks run. A crashed ECU cannot power on until Reset
// clears the crash.
func (e *ECU) PowerOn() {
	if e.powered || e.crashed {
		return
	}
	e.powered = true
	e.port.Reattach()
	for _, p := range e.periodics {
		p.Start()
	}
	for _, fn := range e.onPowerOn {
		fn()
	}
}

// PowerCycle is PowerOff followed by PowerOn at the same virtual instant.
func (e *ECU) PowerCycle() {
	e.PowerOff()
	e.PowerOn()
}

// Reset returns the ECU to its as-built state; New runs the same code.
// The ECU is powered on with storage, indicators and the
// fault log emptied and no crash, stall or armed panic, and every
// registered periodic is re-armed from phase zero in registration order
// — the order construction armed them in, which keeps a reused world's
// event stream byte-identical to a fresh one's. Registered handlers and
// callbacks are retained; the caller resets the scheduler and bus
// around it. Steady state allocates nothing: maps are cleared in place
// and the periodic timers are reused.
func (e *ECU) Reset() {
	for _, p := range e.periodics {
		p.Stop()
	}
	clear(e.nvram)
	clear(e.mils)
	e.faults = e.faults[:0]
	e.ecuRun = ecuRun{powered: true}
	for _, p := range e.periodics {
		p.Start()
	}
}

// --- Storage ---------------------------------------------------------------

// NVWrite stores a value in non-volatile memory (persists across power
// cycles). The value is copied.
func (e *ECU) NVWrite(key string, value []byte) {
	v := make([]byte, len(value))
	copy(v, value)
	e.nvram[key] = v
}

// NVRead returns a copy of a non-volatile value.
func (e *ECU) NVRead(key string) ([]byte, bool) {
	v, ok := e.nvram[key]
	if !ok {
		return nil, false
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, true
}

// NVDelete removes a non-volatile value (e.g. a service tool clearing it).
func (e *ECU) NVDelete(key string) { delete(e.nvram, key) }

// --- Driver-visible indications ---------------------------------------------

// SetMIL switches a malfunction indicator lamp. MILs are volatile: a power
// cycle extinguishes them (as observed on the paper's instrument cluster).
func (e *ECU) SetMIL(name string, on bool) {
	if on {
		e.mils[name] = true
	} else {
		delete(e.mils, name)
	}
}

// MILOn reports whether a lamp is lit.
func (e *ECU) MILOn(name string) bool { return e.mils[name] }

// MILs returns the sorted names of all lit lamps.
func (e *ECU) MILs() []string {
	out := make([]string, 0, len(e.mils))
	for name := range e.mils {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Chime records one audible warning.
func (e *ECU) Chime() { e.chimes++ }

// Chimes returns the number of audible warnings since creation (not reset
// by power cycles; it models the tester's tally of warning sounds).
func (e *ECU) Chimes() uint64 { return e.chimes }

// LogFault appends to the fault log (the log itself is the tester's
// external record, so it survives power cycles).
func (e *ECU) LogFault(code, detail string) {
	e.faults = append(e.faults, Fault{Time: e.sched.Now(), Code: code, Detail: detail})
	e.mFaults.Inc()
	if e.tel != nil {
		e.tel.Emit(telemetry.Event{
			At: e.sched.Now(), Kind: telemetry.EvCustom,
			Actor: e.name, Name: "fault", Detail: code,
		})
	}
}

// Faults returns a copy of the fault log.
func (e *ECU) Faults() []Fault {
	out := make([]Fault, len(e.faults))
	copy(out, e.faults)
	return out
}
