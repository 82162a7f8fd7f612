package bus

import (
	"fmt"
	"time"

	"repro/internal/can"
	"repro/internal/clock"
	"repro/internal/telemetry"
)

// PortStats is a snapshot of per-node counters.
type PortStats struct {
	// TxFrames counts frames this node successfully transmitted.
	TxFrames uint64
	// RxFrames counts frames this node received.
	RxFrames uint64
	// TxErrors counts destroyed transmissions attributed to this node.
	TxErrors uint64
	// Dropped counts frames rejected at Send time (full queue, bus-off...).
	Dropped uint64
	// ArbLosses counts arbitration rounds this node contended in and lost
	// to a higher-priority (lower) identifier.
	ArbLosses uint64
	// BusOffs counts entries into the bus-off state.
	BusOffs uint64
	// Recoveries counts automatic bus-off recoveries (ISO 11898-1 rejoin
	// after 128×11 recessive bits; manual ResetErrors is not counted).
	Recoveries uint64
}

// Port is a node's attachment to the bus. A port both transmits (Send) and
// receives (SetReceiver). Ports are created by Bus.Connect.
type Port struct {
	bus  *Bus
	name string
	recv Receiver
	txq  ring[txEntry]

	// bit is this port's position in the bus's pendingMask.
	bit uint64

	portRun

	// Telemetry handle; nil (no-op) until the bus is instrumented. The
	// port counter series are views of stats.
	gState *telemetry.Gauge

	// Trace emit sites, interned by instrument.
	sArbWon, sArbLost, sTx, sErrorFrame telemetry.Site
}

// portRun is the port's per-trial state. reset assigns it whole, so a
// freshly connected port and a reset one start identically.
type portRun struct {
	detached bool

	state NodeState
	tec   int // transmit error counter
	rec   int // receive error counter

	// Bus-off auto-recovery state (ISO 11898-1 §8.3.4).
	autoRecover  bool
	recovering   bool
	recSeq       int           // recessive 11-bit sequences observed
	recIdleStart time.Duration // when this port's idle accrual began
	recTimer     *clock.Timer

	stats PortStats
}

// instrument registers the per-port counter series and trace emit sites.
// Called by Bus.Instrument for existing ports and by Connect afterwards.
func (p *Port) instrument() {
	trc := p.bus.tel.Trc()
	p.sArbWon = trc.Site(telemetry.EvArbWon, p.name, "arb-won")
	p.sArbLost = trc.Site(telemetry.EvArbLost, p.name, "arb-lost")
	p.sTx = trc.Site(telemetry.EvTx, p.name, "tx")
	p.sErrorFrame = trc.Site(telemetry.EvErrorFrame, p.name, "error-frame")
	reg := p.bus.tel.Reg()
	busLbl := telemetry.Label{Key: "bus", Value: p.bus.name}
	portLbl := telemetry.Label{Key: "port", Value: p.name}
	st := &p.stats
	reg.CounterView(&st.TxFrames, "can_port_tx_frames_total", "Frames this port successfully transmitted.", busLbl, portLbl)
	reg.CounterView(&st.RxFrames, "can_port_rx_frames_total", "Frames this port received.", busLbl, portLbl)
	reg.CounterView(&st.ArbLosses, "can_port_arb_losses_total", "Arbitration rounds this port lost.", busLbl, portLbl)
	reg.CounterView(&st.Dropped, "can_port_dropped_total", "Frames rejected at Send time (full queue, bus-off, detached).", busLbl, portLbl)
	p.gState = reg.Gauge("bus_node_state", "Fault-confinement state of the node (1 error-active, 2 error-passive, 3 bus-off).", busLbl, portLbl)
	p.gState.Set(float64(p.state))
}

// noteRx accounts one received frame.
func (p *Port) noteRx() {
	p.stats.RxFrames++
	p.decREC()
}

// noteDrop accounts one rejected Send.
func (p *Port) noteDrop() {
	p.stats.Dropped++
}

// State returns the node's fault-confinement state.
func (p *Port) State() NodeState { return p.state }

// ErrorCounters returns the transmit and receive error counters.
func (p *Port) ErrorCounters() (tec, rec int) { return p.tec, p.rec }

// Stats returns a snapshot of the node counters.
func (p *Port) Stats() PortStats { return p.stats }

// SetReceiver installs the frame delivery callback. Passing nil makes the
// node transmit-only.
func (p *Port) SetReceiver(r Receiver) { p.recv = r }

// Send queues a frame for transmission. The frame is validated first. It
// contends for the bus under standard CAN arbitration: the lowest pending
// identifier transmits next.
func (p *Port) Send(f can.Frame) error {
	return p.enqueue(f, rawPart{})
}

// txEntry is one queued transmission: a frame from Send, or a raw bit
// sequence from SendRaw, decoded once when it is queued.
type txEntry struct {
	// frame is what arbitrates and is delivered. For raw bits that do not
	// decode it carries only their arbitration identifier.
	frame can.Frame
	rawPart
}

// rawPart is what a raw entry carries beyond its frame; a frame from Send
// leaves it zero. It travels beside the frame, not inside one entry value,
// on the way to the wire: Send then passes it in registers and builds no
// 32-byte entry on the stack, whose copy stalls on a store-to-load
// forward and cost about 25 ns per frame in BenchmarkBusThroughput (2-vCPU
// Xeon host).
type rawPart struct {
	// corrupt marks raw bits that violate the protocol: the transmission
	// ends in an error frame instead of a delivery.
	corrupt bool
	// bits is the wire length including interframe space when it differs
	// from the frame's own (raw entries); zero means
	// can.WireBitsWithIFS(frame). transmit fills it in.
	bits int
	// done, if non-nil, hears the outcome after the delivery or the error
	// frame. It never fires for an entry dropped from the queue.
	done func(RawResult)
}

// enqueue admits one transmission to the port's FIFO and arbitrates.
func (p *Port) enqueue(f can.Frame, raw rawPart) error {
	if p.detached {
		p.noteDrop()
		return ErrDetached
	}
	if p.state == BusOff {
		p.noteDrop()
		return ErrBusOff
	}
	if err := f.Validate(); err != nil {
		p.noteDrop()
		return fmt.Errorf("send on %s: %w", p.name, err)
	}
	if p.txq.len() >= p.bus.queueCap {
		p.noteDrop()
		return fmt.Errorf("send on %s: %w", p.name, ErrTxQueueFull)
	}
	b := p.bus
	if b.pendingMask == 0 && !b.busy && !b.delivering && b.sched.Now() >= b.jamUntil {
		// Idle bus, no other contender: the entry wins arbitration
		// uncontended, so it goes on the wire without the queue round
		// trip and the arbitration scan tryStart would make. A send made
		// while the bus delivers (an ECU's reply) still queues.
		b.leaveIdle()
		b.tel.Trc().Rec(p.sArbWon, b.sched.Now(), 0, uint32(f.ID), 0)
		b.transmit(p, f, raw)
		return nil
	}
	p.txq.push(txEntry{f, raw})
	b.pendingMask |= p.bit
	b.tryStart()
	return nil
}

// pop dequeues the port's head entry, clearing its contention bit when
// the queue empties.
func (p *Port) pop() txEntry {
	e := p.txq.pop()
	if p.txq.len() == 0 {
		p.bus.pendingMask &^= p.bit
	}
	return e
}

// SetAutoRecover switches ISO bus-off auto-recovery for this node. Enabling
// it on a node already in bus-off starts the recovery count immediately;
// disabling it cancels an in-progress recovery.
func (p *Port) SetAutoRecover(on bool) {
	p.autoRecover = on
	if on && p.state == BusOff && !p.detached {
		p.bus.beginRecovery(p)
	}
	if !on {
		p.cancelRecovery()
	}
}

// AutoRecover reports whether ISO bus-off auto-recovery is enabled.
func (p *Port) AutoRecover() bool { return p.autoRecover }

// Recovering reports whether the node is currently counting recessive bits
// toward a bus-off rejoin.
func (p *Port) Recovering() bool { return p.recovering }

// cancelRecovery abandons an in-progress bus-off recovery.
func (p *Port) cancelRecovery() {
	if p.recovering {
		p.bus.recoveringCount--
	}
	p.recovering = false
	p.recSeq = 0
	if p.recTimer != nil {
		p.recTimer.Stop()
		p.recTimer = nil
	}
}

// dropQueued empties the transmit queue and clears the port's
// contention bit.
func (p *Port) dropQueued() {
	p.bus.pendingMask &^= p.bit
	p.txq.clear()
}

// reset returns the port to its freshly-connected state: queue emptied,
// attached and error-active with zeroed counters and statistics, no
// recovery in progress, the bus's auto-recovery default. Connect and
// Bus.Reset call it; the receiver callback and telemetry handles are
// retained. Under Bus.Reset the scheduler was reset first, so the stale
// recovery timer handle is already invalidated and is simply dropped;
// the bus-wide contention mask restarts with the bus's own run state.
func (p *Port) reset() {
	p.txq.clear()
	p.portRun = portRun{state: ErrorActive, autoRecover: p.bus.autoRecover}
	p.gState.Set(float64(p.state))
}

// Detach removes the node from the bus. Pending transmissions are dropped.
func (p *Port) Detach() {
	p.detached = true
	p.dropQueued()
	p.cancelRecovery()
}

// Reattach reconnects a detached node (e.g. after a simulated power cycle)
// and clears its error state.
func (p *Port) Reattach() {
	p.detached = false
	p.ResetErrors()
}

// ResetErrors clears the error counters and returns the node to
// error-active, modelling the controller reset an ECU performs on power-up
// (this is how a bus-off node recovers).
func (p *Port) ResetErrors() {
	p.cancelRecovery()
	prev := p.state
	p.tec, p.rec = 0, 0
	p.state = ErrorActive
	if p.state != prev {
		p.noteStateChange()
	}
	p.bus.tryStart()
}

func (p *Port) bumpTEC(n int) {
	p.tec += n
	p.updateState()
}

func (p *Port) bumpREC(n int) {
	p.rec += n
	p.updateState()
}

func (p *Port) decTEC() {
	// Already at zero: the counters are unchanged, so the state (always
	// kept consistent with the counters) cannot change either. This is
	// the per-delivered-frame path, so the skip matters.
	if p.tec == 0 {
		return
	}
	p.tec--
	p.updateState()
}

func (p *Port) decREC() {
	if p.rec == 0 {
		return
	}
	p.rec--
	p.updateState()
}

func (p *Port) updateState() {
	prev := p.state
	switch {
	case p.tec >= busOffThreshold:
		if p.state != BusOff {
			p.state = BusOff
			p.dropQueued() // controller drops its mailboxes on bus-off
			p.stats.BusOffs++
			if p.autoRecover {
				p.bus.beginRecovery(p)
			}
		}
	case p.tec >= errorPassiveThreshold || p.rec >= errorPassiveThreshold:
		if p.state != BusOff {
			p.state = ErrorPassive
		}
	default:
		if p.state != BusOff {
			p.state = ErrorActive
		}
	}
	if p.state != prev {
		p.noteStateChange()
	}
}

// noteStateChange records a fault-confinement transition. Transitions are
// rare, so the lazy per-state counter registration is off the hot path.
func (p *Port) noteStateChange() {
	p.gState.Set(float64(p.state))
	tel := p.bus.tel
	if tel == nil {
		return
	}
	st := p.state.String()
	tel.Reg().Counter("can_state_transitions_total",
		"Fault-confinement state transitions, by resulting state.",
		telemetry.Label{Key: "bus", Value: p.bus.name},
		telemetry.Label{Key: "port", Value: p.name},
		telemetry.Label{Key: "state", Value: st}).Inc()
	tel.Emit(telemetry.Event{
		At: p.bus.sched.Now(), Kind: telemetry.EvStateChange,
		Actor: p.name, Name: st, N: uint64(p.tec),
	})
}

// noteRecovery records a completed ISO bus-off recovery. The recoveries
// series, a view of stats.Recoveries, registers at the first one, so a
// run without recoveries exports no such series.
func (p *Port) noteRecovery() {
	tel := p.bus.tel
	if tel == nil {
		return
	}
	tel.Reg().CounterView(&p.stats.Recoveries, "can_busoff_recoveries_total",
		"Automatic bus-off recoveries (ISO 11898-1 rejoin).",
		telemetry.Label{Key: "bus", Value: p.bus.name},
		telemetry.Label{Key: "port", Value: p.name})
	tel.Emit(telemetry.Event{
		At: p.bus.sched.Now(), Kind: telemetry.EvRecover,
		Actor: p.name, Name: "bus-off-recovered",
	})
}
