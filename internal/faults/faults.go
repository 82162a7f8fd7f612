// Package faults is the deterministic fault-injection subsystem: a seeded,
// virtual-clock-scheduled injector that composes independent fault plans
// against the simulated vehicle — wire-level corruption, frame loss and
// duplication, a babbling-idiot node flooding a high-priority identifier,
// stuck-dominant bus windows, ECU handler stalls and panics, and port
// detach/reattach cycles.
//
// The paper's §VI findings (the bricked instrument cluster, erratic RPM)
// were *discovered* faults; this package makes them *reproducible* faults:
// every spec draws from its own splitmix-derived RNG stream, so a plan's
// seed fixes the entire fault schedule bit-for-bit and composing or
// removing one spec never perturbs the others.
package faults

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"sort"
	"time"

	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/clock"
	"repro/internal/ecu"
	"repro/internal/telemetry"
)

// Kind names a fault class.
type Kind string

// Fault kinds.
const (
	// KindCorrupt destroys frames on the wire (CRC-detectable; drives the
	// CAN error-confinement machinery toward bus-off).
	KindCorrupt Kind = "corrupt"
	// KindDrop loses frames silently after acknowledgement.
	KindDrop Kind = "drop"
	// KindDup delivers frames twice.
	KindDup Kind = "dup"
	// KindBabble attaches a babbling-idiot node flooding one identifier.
	KindBabble Kind = "babble"
	// KindJam holds the bus dominant (stuck-dominant transceiver).
	KindJam Kind = "jam"
	// KindStall wedges a target ECU's application for a window.
	KindStall Kind = "stall"
	// KindPanic arms a panic in a target ECU's next frame dispatch.
	KindPanic Kind = "panic"
	// KindDetach disconnects a target port, reattaching after the window.
	KindDetach Kind = "detach"
)

// Spec is one fault in a plan.
type Spec struct {
	// Kind selects the fault class.
	Kind Kind
	// At is when the fault (or its window) begins, measured from the
	// instant the injector is started.
	At time.Duration
	// For is the window length for windowed faults (corrupt/drop/dup,
	// babble, jam, stall, detach). Zero means: open-ended for wire faults
	// and babble, instantaneous-default for jam (JamDefault), and
	// permanent for detach.
	For time.Duration
	// Prob is the per-frame application probability for wire faults,
	// in (0,1]; zero means 1 (every frame in the window).
	Prob float64
	// ID is the babbling-idiot arbitration identifier.
	ID can.ID
	// Every is the babbling-idiot transmit period; zero means BabblePeriod.
	Every time.Duration
	// Target names the ECU (stall/panic) or port (detach) under fault.
	Target string
	// Detail is the panic message for KindPanic.
	Detail string
}

// Plan is a seeded, composable fault schedule.
type Plan struct {
	// Seed fixes every per-spec RNG stream.
	Seed int64
	// Specs lists the faults; order is part of the plan identity (it
	// derives each spec's stream and breaks wire-fault ties).
	Specs []Spec
}

// Defaults for under-specified specs.
const (
	// BabblePeriod is the default flood period: one frame per 500 µs is
	// twice the paper's maximum fuzzer rate, enough to starve arbitration.
	BabblePeriod = 500 * time.Microsecond
	// JamDefault is the default stuck-dominant window.
	JamDefault = 10 * time.Millisecond
)

// wireActions maps each wire-level fault kind to its bus verdict.
var wireActions = map[Kind]bus.TxAction{
	KindCorrupt: bus.TxCorrupt,
	KindDrop:    bus.TxDrop,
	KindDup:     bus.TxDuplicate,
}

// wireFault is a wire-level spec with its own PCG, built by New. Start
// anchors its window and reseeds the PCG from stream i of the plan seed.
type wireFault struct {
	spec   Spec // At is absolute once Start anchors it
	i      int  // index of the spec in the plan
	action bus.TxAction
	pcg    rand.PCG
	rng    *rand.Rand
}

// active reports whether the window covers now.
func (w *wireFault) active(now time.Duration) bool {
	if now < w.spec.At {
		return false
	}
	return w.spec.For <= 0 || now < w.spec.At+w.spec.For
}

// Injector executes a Plan against an attached bus, ECUs and ports.
// Create with New, attach targets, then Start. All scheduling runs on the
// virtual clock, so identical plans replay identically.
type Injector struct {
	sched *clock.Scheduler
	plan  Plan

	bus        *bus.Bus
	ecus       map[string]*ecu.ECU
	ports      map[string]*bus.Port
	babblePort *bus.Port

	wire    []*wireFault
	timers  []*clock.Timer
	running bool

	counts map[string]uint64

	// Telemetry handles; nil (no-op) until Instrument is called.
	tel   *telemetry.Telemetry
	mKind map[Kind]*telemetry.Counter
}

// New creates an injector for a plan on the given scheduler.
func New(sched *clock.Scheduler, plan Plan) *Injector {
	if sched == nil {
		panic("faults: nil scheduler")
	}
	inj := &Injector{
		sched:  sched,
		plan:   plan,
		ecus:   make(map[string]*ecu.ECU),
		ports:  make(map[string]*bus.Port),
		counts: make(map[string]uint64),
	}
	for i, s := range plan.Specs {
		if action, ok := wireActions[s.Kind]; ok {
			wf := &wireFault{spec: s, i: i, action: action}
			wf.rng = rand.New(&wf.pcg)
			inj.wire = append(inj.wire, wf)
		}
	}
	return inj
}

// Plan returns the injector's fault plan.
func (inj *Injector) Plan() Plan { return inj.plan }

// AttachBus binds the injector to the bus carrying wire, babble and jam
// faults.
func (inj *Injector) AttachBus(b *bus.Bus) { inj.bus = b }

// AttachECU registers a stall/panic target by name.
func (inj *Injector) AttachECU(name string, e *ecu.ECU) { inj.ecus[name] = e }

// AttachPort registers a detach target by name.
func (inj *Injector) AttachPort(name string, p *bus.Port) { inj.ports[name] = p }

// Instrument attaches the injector to the telemetry plane: a
// faults_injected_total counter per kind in the plan plus an EvFault trace
// event per discrete injection. Nil is a no-op.
func (inj *Injector) Instrument(t *telemetry.Telemetry) {
	if t == nil {
		return
	}
	inj.tel = t
	inj.mKind = make(map[Kind]*telemetry.Counter)
	for _, s := range inj.plan.Specs {
		if _, ok := inj.mKind[s.Kind]; ok {
			continue
		}
		inj.mKind[s.Kind] = t.Registry.Counter("faults_injected_total",
			"Faults injected, by kind.", telemetry.Label{Key: "kind", Value: string(s.Kind)})
	}
}

// Counts returns a copy of the injected-fault counts by kind. Pass this
// (as a method value) to core.WithFaultCounts to embed the counts in the
// campaign report.
func (inj *Injector) Counts() map[string]uint64 {
	return maps.Clone(inj.counts)
}

// note accounts one injection.
func (inj *Injector) note(k Kind, detail string, trace bool) {
	inj.counts[string(k)]++
	inj.mKind[k].Inc()
	if trace && inj.tel != nil {
		inj.tel.Emit(telemetry.Event{
			At: inj.sched.Now(), Kind: telemetry.EvFault,
			Actor: "faults", Name: string(k), Detail: detail,
		})
	}
}

// validate checks that every spec's target is attached and parameters make
// sense, so a bad plan fails at Start instead of mid-campaign.
func (inj *Injector) validate() error {
	for i, s := range inj.plan.Specs {
		switch s.Kind {
		case KindCorrupt, KindDrop, KindDup, KindBabble, KindJam:
			if inj.bus == nil {
				return fmt.Errorf("faults: spec %d (%s) needs AttachBus", i, s.Kind)
			}
		case KindStall, KindPanic:
			if _, ok := inj.ecus[s.Target]; !ok {
				return fmt.Errorf("faults: spec %d (%s) targets unattached ECU %q", i, s.Kind, s.Target)
			}
		case KindDetach:
			if _, ok := inj.ports[s.Target]; !ok {
				return fmt.Errorf("faults: spec %d (%s) targets unattached port %q", i, s.Kind, s.Target)
			}
		default:
			return fmt.Errorf("faults: spec %d has unknown kind %q", i, s.Kind)
		}
		if s.Prob < 0 || s.Prob > 1 {
			return fmt.Errorf("faults: spec %d probability %v outside [0,1]", i, s.Prob)
		}
		if s.At < 0 {
			return fmt.Errorf("faults: spec %d start %v is negative", i, s.At)
		}
	}
	return nil
}

// Start arms the plan. Spec times are relative to the Start instant, so a
// plan written as "at=100ms" fires 100 ms into the chaos run even when the
// system under test already consumed virtual time warming up. Wire-fault
// specs install the injector as the bus interceptor for the run.
func (inj *Injector) Start() error {
	if inj.running {
		return nil
	}
	if err := inj.validate(); err != nil {
		return err
	}
	inj.running = true
	base := inj.sched.Now()
	for _, w := range inj.wire {
		w.spec.At = inj.plan.Specs[w.i].At + base
		SeedPCG(&w.pcg, DeriveSeed(inj.plan.Seed, w.i))
	}
	for _, s := range inj.plan.Specs {
		s.At += base
		switch s.Kind {
		case KindCorrupt, KindDrop, KindDup:
			inj.traceWindow(s)
		case KindBabble:
			inj.armBabble(s)
		case KindJam:
			spec := s
			inj.at(spec.At, func() {
				d := spec.For
				if d <= 0 {
					d = JamDefault
				}
				inj.bus.Jam(d)
				inj.note(KindJam, fmt.Sprintf("stuck-dominant for %v", d), true)
			})
		case KindStall:
			spec := s
			target := inj.ecus[spec.Target]
			inj.at(spec.At, func() {
				target.InjectStall(spec.For)
				inj.note(KindStall, fmt.Sprintf("%s for %v", spec.Target, spec.For), true)
			})
		case KindPanic:
			spec := s
			target := inj.ecus[spec.Target]
			inj.at(spec.At, func() {
				target.InjectPanic(spec.Detail)
				inj.note(KindPanic, spec.Target, true)
			})
		case KindDetach:
			spec := s
			target := inj.ports[spec.Target]
			inj.at(spec.At, func() {
				target.Detach()
				inj.note(KindDetach, spec.Target, true)
			})
			if spec.For > 0 {
				inj.at(spec.At+spec.For, func() {
					target.Reattach()
					if inj.tel != nil {
						inj.tel.Emit(telemetry.Event{
							At: inj.sched.Now(), Kind: telemetry.EvRecover,
							Actor: "faults", Name: "reattach", Detail: spec.Target,
						})
					}
				})
			}
		}
	}
	if len(inj.wire) > 0 {
		inj.bus.SetInterceptor(inj.intercept)
	}
	return nil
}

// Stop disarms pending fault events and removes the wire interceptor.
// Already-applied faults (a detached port, a crashed ECU) are not undone.
func (inj *Injector) Stop() {
	if !inj.running {
		return
	}
	inj.running = false
	for _, t := range inj.timers {
		t.Stop()
	}
	inj.timers = nil
	if len(inj.wire) > 0 && inj.bus != nil {
		inj.bus.SetInterceptor(nil)
	}
}

// at schedules a cancellable one-shot injection step.
func (inj *Injector) at(at time.Duration, fn func()) {
	if at < inj.sched.Now() {
		return // window already past; nothing to arm
	}
	inj.timers = append(inj.timers, inj.sched.At(at, fn))
}

// traceWindow emits open/close trace events for a wire-fault window so the
// Perfetto export shows the fault envelope, without one event per frame.
func (inj *Injector) traceWindow(s Spec) {
	if inj.tel == nil {
		return
	}
	spec := s
	inj.at(spec.At, func() {
		inj.tel.Emit(telemetry.Event{
			At: inj.sched.Now(), Kind: telemetry.EvFault,
			Actor: "faults", Name: string(spec.Kind) + "-window",
			Detail: fmt.Sprintf("p=%v for %v", spec.prob(), spec.For),
		})
	})
}

// prob returns the effective application probability.
func (s Spec) prob() float64 {
	if s.Prob <= 0 {
		return 1
	}
	return s.Prob
}

// intercept is the bus wire-fault hook: every active spec rolls its own
// stream for every frame (so streams stay independent of one another's
// verdicts); the first spec in plan order that hits decides the action.
func (inj *Injector) intercept(f can.Frame) bus.TxAction {
	now := inj.sched.Now()
	action := bus.TxDeliver
	var hit *wireFault
	for _, w := range inj.wire {
		if !w.active(now) {
			continue
		}
		roll := w.spec.prob() >= 1 || w.rng.Float64() < w.spec.prob()
		if roll && hit == nil {
			hit = w
			action = w.action
		}
	}
	if hit != nil {
		inj.note(hit.spec.Kind, "", false)
	}
	return action
}

// armBabble schedules a babbling-idiot flood: a dedicated node transmitting
// the spec identifier every period inside the window. The node wins every
// arbitration round against higher identifiers, starving legitimate traffic.
func (inj *Injector) armBabble(s Spec) {
	spec := s
	period := spec.Every
	if period <= 0 {
		period = BabblePeriod
	}
	inj.at(spec.At, func() {
		if inj.babblePort == nil {
			inj.babblePort = inj.bus.Connect("babble")
		}
		frame := can.MustNew(spec.ID, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
		if inj.tel != nil {
			inj.tel.Emit(telemetry.Event{
				At: inj.sched.Now(), Kind: telemetry.EvFault,
				Actor: "faults", Name: "babble-start",
				Detail: fmt.Sprintf("id=%03X every %v", uint32(spec.ID), period),
			})
		}
		var flood *clock.Timer
		flood = inj.sched.Every(period, func() {
			if spec.For > 0 && inj.sched.Now() >= spec.At+spec.For {
				flood.Stop()
				return
			}
			if err := inj.babblePort.Send(frame); err == nil {
				inj.note(KindBabble, "", false)
			}
		})
		inj.timers = append(inj.timers, flood)
	})
}

// Kinds returns the sorted distinct kinds in the plan (used by reports and
// tests).
func (p Plan) Kinds() []string {
	seen := map[string]bool{}
	for _, s := range p.Specs {
		seen[string(s.Kind)] = true
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
