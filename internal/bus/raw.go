package bus

import (
	"time"

	"repro/internal/can"
)

// Raw bit-level injection — the paper's future-work item "Investigate
// manipulation of data packets at the bit level to fuzz CAN protocol
// control bits (the data link layer)" (§VII).
//
// SendRaw transmits an arbitrary stuffed bit sequence. If the sequence
// decodes as a valid frame it is delivered normally; if it violates the
// protocol (stuffing error, bad CRC, malformed fields) every receiver
// detects the error at end of frame, exactly like controllers raising
// error flags: the transmission is destroyed, the transmitter's TEC rises
// by 8 and each receiver's REC by 1. Either way the bus is occupied for
// the sequence's wire time.

// RawResult reports the outcome of a raw injection.
type RawResult int

const (
	// RawDelivered means the bits decoded as a valid frame and were
	// delivered to receivers.
	RawDelivered RawResult = iota + 1
	// RawErrorFrame means the bits violated the protocol and triggered
	// error signalling instead of delivery.
	RawErrorFrame
)

// SendRaw queues a raw bit sequence for transmission. The priority used in
// arbitration is the identifier encoded in the first twelve bits (valid or
// not). The callback, if non-nil, reports the eventual outcome.
func (p *Port) SendRaw(bits []byte, done func(RawResult)) error {
	if p.detached {
		p.noteDrop()
		return ErrDetached
	}
	if p.state == BusOff {
		p.noteDrop()
		return ErrBusOff
	}
	if p.rawq.len() >= p.bus.queueCap {
		p.noteDrop()
		return ErrTxQueueFull
	}
	seq := make([]byte, len(bits))
	copy(seq, bits)
	p.rawq.push(rawTx{bits: seq, done: done})
	p.notePush()
	p.bus.tryStart()
	return nil
}

// rawTx is one queued raw transmission.
type rawTx struct {
	bits []byte
	done func(RawResult)
}

// rawArbID extracts the arbitration priority from the first bits of a raw
// sequence (SOF + 11 identifier bits); short sequences arbitrate at the
// lowest priority.
func rawArbID(bits []byte) can.ID {
	if len(bits) < 12 {
		return can.MaxID
	}
	var id uint16
	for _, b := range bits[1:12] {
		id = id<<1 | uint16(b&1)
	}
	return can.ID(id & can.MaxID)
}

// startRaw begins a raw transmission for the winning port.
func (b *Bus) startRaw(winner *Port) {
	tx := winner.rawq.pop()
	winner.notePop()
	b.busy = true
	bits := len(tx.bits) + can.InterframeSpace
	dur := time.Duration(bits) * time.Second / time.Duration(b.bitrate)
	b.pend.isRaw, b.pend.port, b.pend.raw, b.pend.dur = true, winner, tx, dur
	b.sched.AfterEvent(dur, b.completeEvent)
}

// completeRaw finishes a raw transmission: decode, then deliver or signal
// an error frame.
func (b *Bus) completeRaw(tx *Port, raw rawTx, dur time.Duration) {
	b.busy = false
	b.noteBusy(dur)
	b.creditFrameEnd()

	frame, err := can.DecodeBits(raw.bits)
	if err != nil || frame.Validate() != nil {
		// Protocol violation: error frame. Same fault-confinement rules as
		// a corrupted transmission.
		b.noteErrorFrame(tx, rawArbID(raw.bits), dur)
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

	b.noteDelivered(tx, frame.ID, dur, len(raw.bits)+can.InterframeSpace)
	msg := Message{Frame: frame, Time: b.sched.Now(), Origin: tx.name}
	b.delivering = true
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
	b.delivering = false
	if raw.done != nil {
		raw.done(RawDelivered)
	}
	b.tryStart()
}
