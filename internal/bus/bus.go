// Package bus simulates a shared CAN bus: a broadcast medium with
// priority-based arbitration, bit-accurate transmission latency, error
// counters with error-passive/bus-off states, passive taps (the OBD port of
// the paper), and load accounting.
//
// The model is event-driven on a clock.Scheduler. When the bus is idle and
// at least one connected port has a pending frame, the frame with the
// lowest arbitration identifier wins (CAN's dominant-bit arbitration) and
// occupies the bus for its stuffed wire length at the configured bitrate.
// Receivers see the frame at end-of-frame time, exactly as a real
// controller raises its RX interrupt.
package bus

import (
	"errors"
	"fmt"
	mathbits "math/bits"
	"time"

	"repro/internal/can"
	"repro/internal/clock"
	"repro/internal/telemetry"
)

// Errors returned by Port.Send.
var (
	ErrDetached    = errors.New("bus: port is detached")
	ErrBusOff      = errors.New("bus: node is in bus-off state")
	ErrTxQueueFull = errors.New("bus: transmit queue full")
)

// DefaultBitrate is the common in-vehicle CAN speed used by the paper's
// target car (§IV: "A common transmission speed used in cars is 500kb/s").
const DefaultBitrate = 500_000

// DefaultTxQueueCap bounds each port's transmit queue, mirroring the finite
// mailbox depth of a CAN controller.
const DefaultTxQueueCap = 256

// Error-counter thresholds from the CAN specification.
const (
	errorPassiveThreshold = 128
	busOffThreshold       = 256
)

// Bus-off recovery constants from ISO 11898-1 §8.3.4: a bus-off node may
// return to error-active after monitoring 128 occurrences of 11 consecutive
// recessive bits. The simulator credits one sequence per observed end of
// frame (EOF or error delimiter plus intermission) and accrues sequences
// continuously while the bus is idle.
const (
	busOffRecoverySequences = 128
	recessiveSeqBits        = 11
)

// NodeState describes a port's CAN fault-confinement state.
type NodeState int

const (
	// ErrorActive is the normal operating state.
	ErrorActive NodeState = iota + 1
	// ErrorPassive is entered when an error counter exceeds 127.
	ErrorPassive
	// BusOff is entered when the transmit error counter exceeds 255; the
	// node no longer participates on the bus until reset.
	BusOff
)

// String returns the state name.
func (s NodeState) String() string {
	switch s {
	case ErrorActive:
		return "error-active"
	case ErrorPassive:
		return "error-passive"
	case BusOff:
		return "bus-off"
	default:
		return fmt.Sprintf("NodeState(%d)", int(s))
	}
}

// Message is a frame as observed on the bus.
type Message struct {
	// Frame is the delivered frame.
	Frame can.Frame
	// Time is the virtual end-of-frame instant.
	Time time.Duration
	// Origin names the transmitting port.
	Origin string
}

// Receiver consumes delivered frames. Implementations must not block; they
// run inline inside the simulation event loop.
type Receiver func(Message)

// Option configures a Bus.
type Option func(*Bus)

// WithBitrate sets the bus speed in bits per second.
func WithBitrate(bps int) Option {
	return func(b *Bus) {
		if bps > 0 {
			b.bitrate = bps
		}
	}
}

// WithTxQueueCap sets the per-port transmit queue capacity.
func WithTxQueueCap(n int) Option {
	return func(b *Bus) {
		if n > 0 {
			b.queueCap = n
		}
	}
}

// WithName labels the bus in telemetry exports ("body", "powertrain"...).
func WithName(name string) Option {
	return func(b *Bus) {
		if name != "" {
			b.name = name
		}
	}
}

// WithAutoRecovery makes every port (current and future) perform
// CAN-conformant bus-off recovery: a bus-off node rejoins as error-active
// after observing 128 sequences of 11 recessive bits (ISO 11898-1 §8.3.4)
// instead of staying off the bus until an explicit ResetErrors.
func WithAutoRecovery() Option {
	return func(b *Bus) { b.autoRecover = true }
}

// TxAction is an Interceptor's verdict on one completed transmission.
type TxAction int

const (
	// TxDeliver lets the frame through unharmed.
	TxDeliver TxAction = iota
	// TxCorrupt destroys the frame on the wire: every node detects the CRC
	// error at end of frame, the transmitter's TEC rises by 8 and each
	// receiver's REC by 1.
	TxCorrupt
	// TxDrop loses the frame silently: it occupies the wire and the
	// transmitter sees its ACK, but no receiver is handed the frame —
	// modelling a receiver-side glitch the protocol does not detect.
	TxDrop
	// TxDuplicate delivers the frame twice to every receiver, modelling the
	// spurious retransmission a marginal transceiver produces.
	TxDuplicate
)

// Interceptor is the wire-fault hook: it inspects each transmission at end
// of frame and decides its fate.
type Interceptor func(can.Frame) TxAction

// Stats is a snapshot of bus-level counters.
type Stats struct {
	// FramesDelivered counts successfully transmitted frames.
	FramesDelivered uint64
	// FramesCorrupted counts transmissions destroyed by fault injection.
	FramesCorrupted uint64
	// FramesDropped counts transmissions lost silently by fault injection.
	FramesDropped uint64
	// FramesDuplicated counts transmissions delivered twice by fault
	// injection.
	FramesDuplicated uint64
	// BitsTransmitted counts wire bits of successful frames (with IFS).
	BitsTransmitted uint64
	// BusyTime is cumulative time the bus spent transmitting.
	BusyTime time.Duration
	// JamTime is cumulative time the bus was held dominant by Jam.
	JamTime time.Duration
}

// Bus is the shared medium. Create with New; attach nodes with Connect.
type Bus struct {
	sched    *clock.Scheduler
	bitrate  int
	queueCap int
	name     string

	ports       []*Port
	taps        []Receiver
	intercept   Interceptor
	autoRecover bool

	completeEvent clock.Event // bound once in New to completePending
	jamEvent      clock.Event // bound once in New to jamEnded

	// win is the sliding load window behind the can_bus_load_ratio gauge,
	// accrued only while the bus is instrumented; Reset rewinds it,
	// keeping the configured bucket span.
	win loadWindow

	busRun

	// Telemetry hooks; all nil (no-op) until Instrument is called.
	tel        *telemetry.Telemetry
	mDelivered *telemetry.Counter
	mCorrupted *telemetry.Counter
	mFaultDrop *telemetry.Counter
	mFaultDup  *telemetry.Counter
	mBits      *telemetry.Counter
	gLoad      *telemetry.Gauge
	hWireTime  *telemetry.Histogram
}

// busRun is the bus's per-trial state. Reset assigns it whole, so a
// cold build (New calls Reset) and a warm reset start identically.
type busRun struct {
	busy       bool
	delivering bool

	// pend is the single in-flight transmission (the bus carries at most one
	// frame at a time, gated by busy). Keeping it on the Bus and dispatching
	// through the pre-bound completion events means starting a
	// transmission allocates nothing: the old code closed over (port, frame,
	// dur) in a fresh closure per frame, the third-largest allocation source
	// on the hot path.
	pend struct {
		port  *Port
		frame can.Frame
		raw   rawPart
		dur   time.Duration
	}

	// Stuck-dominant window: no transmission starts and no recessive bits
	// are observable before jamUntil.
	jamUntil time.Duration

	// Idle tracking for ISO 11898-1 bus-off recovery: while the bus is
	// idle, recovering nodes accrue recessive-bit sequences continuously.
	// recoveringCount tracks how many ports are mid-recovery so the idle
	// transitions and per-frame crediting — which run on every completed
	// frame — skip the port scan in the overwhelmingly common case of no
	// node recovering.
	idle            bool
	recoveringCount int

	// pendingMask has bit i set iff ports[i] has at least one queued
	// transmission, so arbitration visits only contending ports, and the
	// post-completion tryStart — which usually finds an empty bus — skips
	// the scan entirely. Queues are always emptied when a port detaches or
	// goes bus-off, so every port in the mask contends.
	pendingMask uint64

	stats  Stats
	start  time.Duration // load baseline: the instant of the last Reset
	loadAt time.Duration // completion instant of the last frame in win
}

// New creates a bus on the given scheduler.
func New(sched *clock.Scheduler, opts ...Option) *Bus {
	if sched == nil {
		panic("bus: nil scheduler")
	}
	b := &Bus{
		sched:    sched,
		bitrate:  DefaultBitrate,
		queueCap: DefaultTxQueueCap,
		name:     "can",
		win:      loadWindow{bucket: DefaultLoadWindow / loadWindowBuckets},
	}
	for _, o := range opts {
		o(b)
	}
	b.completeEvent = b.completePending
	b.jamEvent = b.jamEnded
	b.Reset()
	return b
}

// completePending finishes the in-flight transmission recorded in pend.
// Arguments are copied out of pend at the call, so the completion handler
// is free to start (and record) the next transmission.
func (b *Bus) completePending() {
	b.complete(b.pend.port, b.pend.frame, b.pend.raw, b.pend.dur)
}

// Instrument attaches the bus (and its current and future ports) to the
// telemetry plane: bus counters, the sliding-window load gauge, the wire
// time histogram, and the arbitration/error trace events. Passing nil is a
// no-op; the bus stays uninstrumented. The load window counts frames
// completed from here on: an uninstrumented bus keeps no window.
func (b *Bus) Instrument(t *telemetry.Telemetry) {
	if t == nil {
		return
	}
	b.tel = t
	reg := t.Registry
	lbl := telemetry.Label{Key: "bus", Value: b.name}
	b.mDelivered = reg.Counter("can_frames_delivered_total", "Successfully transmitted frames.", lbl)
	b.mCorrupted = reg.Counter("can_frames_corrupted_total", "Transmissions destroyed by corruption or protocol violation.", lbl)
	b.mFaultDrop = reg.Counter("can_frames_dropped_total", "Transmissions lost silently by fault injection.", lbl)
	b.mFaultDup = reg.Counter("can_frames_duplicated_total", "Transmissions delivered twice by fault injection.", lbl)
	b.mBits = reg.Counter("can_bits_transmitted_total", "Wire bits of successful frames, including interframe space.", lbl)
	b.gLoad = reg.Gauge("can_bus_load_ratio", "Fraction of the sliding virtual-time window the bus spent transmitting.", lbl)
	b.gLoad.SetSource(b.windowLoad)
	b.hWireTime = reg.Histogram("can_tx_wire_seconds", "Stuffed wire time per successful transmission.", nil, lbl)
	for _, p := range b.ports {
		p.instrument()
	}
}

// Bitrate returns the configured bit rate in bits per second.
func (b *Bus) Bitrate() int { return b.bitrate }

// SetInterceptor installs the wire-fault hook. Pass nil to remove it.
func (b *Bus) SetInterceptor(i Interceptor) { b.intercept = i }

// SetAutoRecovery switches ISO bus-off auto-recovery for every currently
// connected port and sets the default for ports connected later.
func (b *Bus) SetAutoRecovery(on bool) {
	b.autoRecover = on
	for _, p := range b.ports {
		p.SetAutoRecover(on)
	}
}

// Jammed reports whether a stuck-dominant window is currently holding the
// bus.
func (b *Bus) Jammed() bool { return b.sched.Now() < b.jamUntil }

// Jam holds the bus dominant for d (a stuck-dominant transceiver or a
// deliberate jamming attack): no transmission can start and no recessive
// bits are observable, so bus-off recovery pauses. An in-flight
// transmission completes first — the jam takes effect at the next
// arbitration opportunity. Overlapping jams extend the window.
func (b *Bus) Jam(d time.Duration) {
	if d <= 0 {
		return
	}
	now := b.sched.Now()
	until := now + d
	if until <= b.jamUntil {
		return // already jammed at least that long
	}
	extending := b.jamUntil > now
	if extending {
		b.stats.JamTime += until - b.jamUntil
	} else {
		b.stats.JamTime += d
	}
	b.jamUntil = until
	b.leaveIdle() // dominant bits interrupt recessive observation
	if !extending {
		b.sched.AtEvent(until, b.jamEvent)
	}
}

// jamEnded resumes arbitration when the dominant window elapses. If the
// window was extended meanwhile, it re-arms for the new deadline.
func (b *Bus) jamEnded() {
	if b.sched.Now() < b.jamUntil {
		b.sched.AtEvent(b.jamUntil, b.jamEvent)
		return
	}
	b.tryStart()
}

// Tap registers a passive listener that observes every successfully
// delivered frame, like a wiretap or a device on the OBD port. Taps cannot
// transmit and have no error state.
func (b *Bus) Tap(r Receiver) {
	if r == nil {
		panic("bus: nil tap receiver")
	}
	b.taps = append(b.taps, r)
}

// Stats returns a snapshot of the bus counters.
func (b *Bus) Stats() Stats { return b.stats }

// Load returns the fraction of elapsed time the bus spent transmitting,
// in [0,1].
func (b *Bus) Load() float64 {
	elapsed := b.sched.Now() - b.start
	if elapsed <= 0 {
		return 0
	}
	return float64(b.stats.BusyTime) / float64(elapsed)
}

// FrameTime returns the on-wire duration of a frame at the bus bitrate,
// including interframe space.
func (b *Bus) FrameTime(f can.Frame) time.Duration {
	bits := can.WireBitsWithIFS(f)
	return time.Duration(bits) * time.Second / time.Duration(b.bitrate)
}

// maxPorts bounds the ports one bus carries: each has a bit in the
// arbitration mask.
const maxPorts = 64

// Connect attaches a named node to the bus and returns its port. It
// panics on a port past maxPorts.
func (b *Bus) Connect(name string) *Port {
	if len(b.ports) == maxPorts {
		panic("bus: more than 64 ports on one bus")
	}
	p := &Port{bus: b, name: name, bit: 1 << len(b.ports)}
	p.reset()
	b.ports = append(b.ports, p)
	if b.tel != nil {
		p.instrument()
	}
	return p
}

// Reset returns the bus and every connected port to their as-built state;
// New and Connect run the same code, so a cold build and a warm reset
// start identically. Configuration survives — bitrate, queue capacity,
// name, taps, receivers, fault hooks, telemetry handles, the
// auto-recovery default — while the per-trial state (busRun, the load
// window, each port's portRun and queues) starts over, with the load
// baseline at the scheduler's current instant. Under world reuse it runs
// after a scheduler reset, so no completion or recovery event from the
// previous life can fire. Steady state allocates nothing.
func (b *Bus) Reset() {
	for _, p := range b.ports {
		p.reset()
	}
	b.gLoad.Settle() // a load not yet published reads the old window
	b.busRun = busRun{start: b.sched.Now()}
	b.win.reset()
}

// tryStart begins the highest-priority pending transmission if the bus is
// idle. Called whenever a transmission is queued or completes.
func (b *Bus) tryStart() {
	if b.busy || b.delivering {
		return
	}
	if b.sched.Now() < b.jamUntil {
		return // stuck-dominant window: arbitration resumes at jamEnded
	}
	if b.pendingMask == 0 {
		b.enterIdle()
		return
	}
	// Bit index equals port index, so this visits contenders in attach
	// order, and the winner is replaced only on a strictly lower
	// identifier: ties keep the earlier port.
	var winner *Port
	var winnerID can.ID
	for m := b.pendingMask; m != 0; m &= m - 1 {
		p := b.ports[mathbits.TrailingZeros64(m)]
		if id := p.txq.front().frame.ID; winner == nil || id < winnerID {
			winner, winnerID = p, id
		}
	}
	b.leaveIdle()
	// The uncontended case (one pending sender) has no losers to charge,
	// so it skips the loser rescan and records only the arb-won event.
	if b.pendingMask&(b.pendingMask-1) != 0 {
		b.noteArbitration(winner, winnerID)
	} else {
		b.tel.Trc().Rec(winner.sArbWon, b.sched.Now(), 0, uint32(winnerID), 0)
	}
	e := winner.pop()
	b.transmit(winner, e.frame, e.rawPart)
}

// transmit puts f, with its raw part, from p on the wire; its completion
// fires after the wire time.
func (b *Bus) transmit(p *Port, f can.Frame, raw rawPart) {
	b.busy = true
	if raw.bits == 0 {
		raw.bits = can.WireBitsWithIFS(f)
	}
	dur := time.Duration(raw.bits) * time.Second / time.Duration(b.bitrate)
	b.pend.port, b.pend.frame, b.pend.raw, b.pend.dur = p, f, raw, dur
	b.sched.AfterEvent(dur, b.completeEvent)
}

// complete finishes a transmission: updates error counters, delivers to
// receivers and taps or signals an error frame, reports a raw outcome,
// then arbitrates the next transmission.
func (b *Bus) complete(tx *Port, frame can.Frame, raw rawPart, dur time.Duration) {
	b.busy = false
	b.noteBusy(dur)
	b.creditFrameEnd()

	action := TxDeliver
	if raw.corrupt {
		action = TxCorrupt
	} else if b.intercept != nil {
		action = b.intercept(frame)
	}

	if action == TxCorrupt {
		b.noteErrorFrame(tx, frame.ID, dur)
		for _, p := range b.ports {
			if p != tx && !p.detached && p.state != BusOff {
				p.bumpREC(1)
			}
		}
		if raw.done != nil {
			raw.done(RawErrorFrame)
		}
		b.tryStart()
		return
	}

	b.noteDelivered(tx, frame.ID, dur, raw.bits)
	if action == TxDrop {
		// The wire carried the frame and the transmitter saw its ACK, but
		// no receiver was handed it.
		b.stats.FramesDropped++
		b.mFaultDrop.Inc()
	} else {
		b.deliver(tx, frame, action == TxDuplicate)
	}
	if raw.done != nil {
		raw.done(RawDelivered)
	}
	b.tryStart()
}

// deliver hands a completed frame to every receiving port and tap, twice
// when the interceptor duplicated it.
func (b *Bus) deliver(tx *Port, frame can.Frame, twice bool) {
	msg := Message{Frame: frame, Time: b.sched.Now(), Origin: tx.name}
	passes := 1
	if twice {
		passes = 2
		b.stats.FramesDuplicated++
		b.mFaultDup.Inc()
	}
	b.delivering = true
	for i := 0; i < passes; i++ {
		for _, p := range b.ports {
			if p == tx || p.detached || p.state == BusOff || p.recv == nil {
				continue
			}
			p.noteRx()
			p.recv(msg)
		}
		for _, t := range b.taps {
			t(msg)
		}
	}
	b.delivering = false
}

// --- Bus-off recovery (ISO 11898-1 §8.3.4) ----------------------------------
//
// A bus-off node with auto-recovery enabled monitors the bus for 128
// occurrences of 11 consecutive recessive bits and then rejoins as
// error-active with cleared counters. Sequences accrue from two sources:
// one per observed end of frame (EOF or error delimiter plus the
// intermission field is at least 11 recessive bits), and continuously while
// the bus is idle (one sequence per 11 bit times). Stuck-dominant jams
// interrupt the idle accrual — a jammed bus shows no recessive bits.

// seqTime returns the wire time of 11 recessive bits at the nominal rate.
func (b *Bus) seqTime() time.Duration {
	return time.Duration(recessiveSeqBits) * time.Second / time.Duration(b.bitrate)
}

// enterIdle marks the bus idle and arms a rejoin timer for every
// recovering port at its exact remaining recessive time.
func (b *Bus) enterIdle() {
	if b.idle {
		return
	}
	b.idle = true
	if b.recoveringCount == 0 {
		return
	}
	for _, p := range b.ports {
		if p.recovering {
			p.recIdleStart = b.sched.Now()
			b.armRecovery(p)
		}
	}
}

// leaveIdle credits the elapsed idle time to recovering ports (whole
// 11-bit sequences only, counted per port from when its accrual began) and
// cancels their rejoin timers.
func (b *Bus) leaveIdle() {
	if !b.idle {
		return
	}
	b.idle = false
	if b.recoveringCount == 0 {
		return
	}
	for _, p := range b.ports {
		if !p.recovering {
			continue
		}
		if p.recTimer != nil {
			p.recTimer.Stop()
			p.recTimer = nil
		}
		p.recSeq += int((b.sched.Now() - p.recIdleStart) / b.seqTime())
		if p.recSeq >= busOffRecoverySequences {
			// The rejoin instant coincides with this event; the timer may
			// be ordered after us in the queue, so rejoin directly.
			b.rejoin(p)
		}
	}
}

// armRecovery schedules p's rejoin assuming the bus stays idle.
func (b *Bus) armRecovery(p *Port) {
	remaining := busOffRecoverySequences - p.recSeq
	if remaining <= 0 {
		b.rejoin(p)
		return
	}
	p.recTimer = b.sched.After(time.Duration(remaining)*b.seqTime(), func() {
		p.recTimer = nil
		b.rejoin(p)
	})
}

// beginRecovery starts the recessive-bit count for a port that just went
// bus-off. Called from the state machine when auto-recovery is enabled.
func (b *Bus) beginRecovery(p *Port) {
	if p.recovering {
		return
	}
	p.recovering = true
	b.recoveringCount++
	p.recSeq = 0
	if b.idle {
		// The node went bus-off on an idle bus (e.g. SetAutoRecover on an
		// already-off node); its idle accrual starts from this instant.
		p.recIdleStart = b.sched.Now()
		b.armRecovery(p)
	}
}

// creditFrameEnd credits one recessive sequence to every recovering port at
// an observed end of frame, rejoining any that reach the threshold.
func (b *Bus) creditFrameEnd() {
	if b.recoveringCount == 0 {
		return
	}
	for _, p := range b.ports {
		if !p.recovering {
			continue
		}
		p.recSeq++
		if p.recSeq >= busOffRecoverySequences {
			b.rejoin(p)
		}
	}
}

// rejoin returns a recovered node to error-active with cleared counters
// (the controller re-initialises after the recovery sequence).
func (b *Bus) rejoin(p *Port) {
	if !p.recovering {
		return
	}
	p.recovering = false
	b.recoveringCount--
	if p.recTimer != nil {
		p.recTimer.Stop()
		p.recTimer = nil
	}
	p.tec, p.rec = 0, 0
	p.state = ErrorActive
	p.stats.Recoveries++
	p.noteStateChange()
	p.noteRecovery()
}

// --- Telemetry accounting ---------------------------------------------------
//
// The note* helpers keep the counter and trace updates out of the
// arbitration and completion paths. Every telemetry handle is nil when
// the bus is uninstrumented, so the added cost is a few predictable
// branches.

// noteArbitration charges an arbitration loss to every port that contended
// and lost against the winner, and emits the won/lost trace events.
func (b *Bus) noteArbitration(winner *Port, winnerID can.ID) {
	trc := b.tel.Trc()
	for m := b.pendingMask &^ winner.bit; m != 0; m &= m - 1 {
		p := b.ports[mathbits.TrailingZeros64(m)]
		p.stats.ArbLosses++
		p.mArbLoss.Inc()
		trc.Rec(p.sArbLost, b.sched.Now(), 0, uint32(winnerID), 0)
	}
	trc.Rec(winner.sArbWon, b.sched.Now(), 0, uint32(winnerID), 0)
}

// noteBusy accrues bus occupancy into the lifetime account and, on an
// instrumented bus, into the sliding window behind the load gauge. The
// gauge is touched, not set: outside a run it reads the window at once,
// during one only when the registry publishes (see windowLoad).
func (b *Bus) noteBusy(dur time.Duration) {
	b.stats.BusyTime += dur
	if b.tel == nil {
		return
	}
	now := b.sched.Now()
	b.win.add(now, dur)
	b.loadAt = now
	b.gLoad.Touch()
	b.tel.Advance(now)
}

// windowLoad is the load gauge's source: the window's load as of the
// last completed frame, the instant each frame used to set it at.
func (b *Bus) windowLoad() float64 { return b.win.load(b.loadAt) }

// noteErrorFrame accounts a destroyed transmission on the transmitter.
func (b *Bus) noteErrorFrame(tx *Port, id can.ID, dur time.Duration) {
	b.stats.FramesCorrupted++
	tx.bumpTEC(8)
	tx.stats.TxErrors++
	b.mCorrupted.Inc()
	b.tel.Trc().Rec(tx.sErrorFrame, b.sched.Now()-dur, dur, uint32(id), 0)
}

// noteDelivered accounts a successful transmission on bus and transmitter.
func (b *Bus) noteDelivered(tx *Port, id can.ID, dur time.Duration, bits int) {
	b.stats.FramesDelivered++
	b.stats.BitsTransmitted += uint64(bits)
	tx.decTEC()
	tx.stats.TxFrames++
	b.mDelivered.Inc()
	b.mBits.Add(uint64(bits))
	tx.mTx.Inc()
	if b.tel != nil {
		b.hWireTime.ObserveDuration(dur)
		b.tel.Trc().Rec(tx.sTx, b.sched.Now()-dur, dur, uint32(id), uint64(bits))
	}
}
