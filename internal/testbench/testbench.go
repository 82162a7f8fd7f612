// Package testbench assembles the paper's bench-top experiment (Figs
// 10-13): a three-node CAN bus — head unit, body control module with the
// lock "LED", and a monitor node — reproducing the remote vehicle unlock
// feature, plus the attachment point for the fuzzer acting as "a malicious
// unit connected to the vehicle network".
//
// The bench exists because fuzzing the real vehicle risked damage (§VI):
// "In order to prevent the possibility of damage to the target vehicle's
// components, further testing of the fuzzer was performed against a
// bench-top hardware configuration." Table V's quantitative results come
// from this bench.
//
// The package models the testbed only: target.Build composes it with a
// fuzz campaign, its oracles and (in guided mode) a feedback engine into a
// fleet world, and owns the recipe that resets that world between trials.
package testbench

import (
	"time"

	"repro/internal/bcm"
	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/clock"
	"repro/internal/ecu"
	"repro/internal/guided"
	"repro/internal/infotain"
	"repro/internal/oracle"
	"repro/internal/signal"
	"repro/internal/telemetry"
)

// AppToken is the bench's app/head-unit pairing secret.
const AppToken = "bench-app"

// Config tunes the bench.
type Config struct {
	// Check selects the BCM command-parser strictness — the Table V
	// variable.
	Check bcm.CheckMode
	// AckUnlock enables the unlock-acknowledgement broadcast (the paper's
	// augmentation "to aid with the detection of the unlock state").
	AckUnlock bool
}

// Bench is the assembled three-node testbed.
type Bench struct {
	sched *clock.Scheduler
	tel   *telemetry.Telemetry // set by Instrument; zeroed by Reset

	// Bus is the bench CAN bus.
	Bus *bus.Bus
	// HeadUnit plays the infotainment node (driven by the PC app).
	HeadUnit *infotain.HeadUnit
	// BCM owns the lock state; its LED is BCM.Unlocked().
	BCM *bcm.BCM
	// Monitor is the third SBC: a passive observer; its port counts the
	// traffic it receives.
	Monitor *ecu.ECU
}

// New assembles a bench on the given scheduler.
func New(sched *clock.Scheduler, cfg Config) *Bench {
	b := &Bench{sched: sched, Bus: bus.New(sched, bus.WithName("bench"))}
	b.HeadUnit = infotain.New(ecu.New("headunit", sched, b.Bus.Connect("headunit")), AppToken)
	b.BCM = bcm.New(ecu.New("bcm", sched, b.Bus.Connect("bcm")), bcm.Config{
		Check:     cfg.Check,
		AckUnlock: cfg.AckUnlock,
	})
	b.Monitor = ecu.New("monitor", sched, b.Bus.Connect("monitor"))
	return b
}

// Reset returns the bench to its freshly-assembled state for the next
// trial: the scheduler it runs on goes back to time zero and drops every
// pending event, the telemetry plane it is instrumented with is zeroed,
// and the bus and nodes reset in construction order — bus, head unit,
// BCM, monitor — so the BCM status broadcast is re-armed with the same
// scheduling sequence number a fresh bench would give it, keeping a
// reused bench's event stream byte-identical to a new one's. Whatever
// else runs on the scheduler (the fuzzer's campaign, a guided engine) is
// reset after the bench; the bench world target.Build returns carries
// that recipe as its World.Reset.
func (b *Bench) Reset() {
	b.sched.Reset()
	b.tel.Reset()
	b.Bus.Reset()
	b.HeadUnit.ECU().Reset()
	b.HeadUnit.Reset()
	b.BCM.ECU().Reset()
	b.BCM.Reset()
	b.Monitor.Reset()
}

// Instrument attaches the bench bus and its three nodes to a telemetry
// plane, which Reset then zeroes with the bench. Passing nil is a no-op.
func (b *Bench) Instrument(t *telemetry.Telemetry) {
	if t == nil {
		return
	}
	b.tel = t
	b.Bus.Instrument(t)
	b.HeadUnit.ECU().Instrument(t)
	b.BCM.ECU().Instrument(t)
	b.Monitor.Instrument(t)
}

// ECUs returns the bench nodes by name — the attachment map a
// fault-injection plan uses to resolve stall/panic targets.
func (b *Bench) ECUs() map[string]*ecu.ECU {
	return map[string]*ecu.ECU{
		b.HeadUnit.ECU().Name(): b.HeadUnit.ECU(),
		b.BCM.ECU().Name():      b.BCM.ECU(),
		b.Monitor.Name():        b.Monitor,
	}
}

// AttachFuzzer connects a malicious node to the bench bus.
func (b *Bench) AttachFuzzer(name string) *bus.Port {
	return b.Bus.Connect(name)
}

// UnlockOracle returns the network oracle for the augmented unlock
// acknowledgement (requires Config.AckUnlock).
func (b *Bench) UnlockOracle() *oracle.Ack {
	return &oracle.Ack{
		OracleName: "unlock-ack",
		Once:       true,
		Match: func(f can.Frame) bool {
			return f.ID == signal.IDUnlockAck && f.Len >= 1 && f.Data[0] == signal.UnlockAckCode
		},
	}
}

// LEDOracle returns the physical oracle watching the lock LED directly —
// the "sensor on the door lock" alternative the paper mentions for a real
// vehicle.
func (b *Bench) LEDOracle(interval time.Duration) *oracle.Probe {
	return oracle.Physical("lock-led", interval, b.BCM.Unlocked, false, "lock LED lit (doors unlocked)")
}

// GuidedProbes returns the bench's feedback probes for a guided.Engine:
// BCM command-frame and near-miss counters (the gradient toward the Table V
// unlock — a near-miss means one constraint away), the lock state itself,
// and the fuzzer port's error counters. Probe features are keyed by name,
// so the slice order is cosmetic.
func (b *Bench) GuidedProbes(fuzzer *bus.Port) []guided.Probe {
	return []guided.Probe{
		{Name: "bcm_cmd_frames", Fn: func() uint64 { n, _ := b.BCM.CommandStats(); return n }},
		{Name: "bcm_near_misses", Fn: func() uint64 { _, n := b.BCM.CommandStats(); return n }},
		{Name: "bcm_unlocked", Fn: func() uint64 {
			if b.BCM.Unlocked() {
				return 1
			}
			return 0
		}},
		{Name: "fuzzer_tec", Fn: func() uint64 { tec, _ := fuzzer.ErrorCounters(); return uint64(tec) }},
		{Name: "fuzzer_rec", Fn: func() uint64 { _, rec := fuzzer.ErrorCounters(); return uint64(rec) }},
	}
}
