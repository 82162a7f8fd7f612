package bus

import (
	"fmt"
	"time"

	"repro/internal/can"
)

// CAN FD transport — the paper's §VII future-work item. FD frames share
// the bus and its arbitration with classic frames (as on a real mixed
// network where every node is FD-tolerant), but are delivered only to
// receivers registered with SetFDReceiver. When the bus has a data bitrate
// configured (WithFDDataBitrate), BRS frames transmit their data phase at
// that faster rate.

// DefaultFDDataBitrate is the common 2 Mbit/s FD data-phase rate.
const DefaultFDDataBitrate = 2_000_000

// WithFDDataBitrate sets the FD data-phase bitrate (0 disables bit-rate
// switching; BRS frames then run entirely at the nominal rate).
func WithFDDataBitrate(bps int) Option {
	return func(b *Bus) { b.fdDataBitrate = bps }
}

// FDMessage is an FD frame as observed on the bus.
type FDMessage struct {
	// Frame is the delivered FD frame.
	Frame can.FDFrame
	// Time is the virtual end-of-frame instant.
	Time time.Duration
	// Origin names the transmitting port.
	Origin string
}

// FDReceiver consumes delivered FD frames.
type FDReceiver func(FDMessage)

// SetFDReceiver installs the FD delivery callback on a port. Classic-only
// nodes simply never register one (they tolerate FD traffic silently, like
// FD-tolerant classic controllers).
func (p *Port) SetFDReceiver(r FDReceiver) { p.fdRecv = r }

// SendFD queues an FD frame for transmission. It contends in the same
// arbitration as classic frames.
func (p *Port) SendFD(f can.FDFrame) error {
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
		return fmt.Errorf("sendFD on %s: %w", p.name, err)
	}
	if p.fdq.len() >= p.bus.queueCap {
		p.noteDrop()
		return fmt.Errorf("sendFD on %s: %w", p.name, ErrTxQueueFull)
	}
	p.fdq.push(f)
	p.notePush()
	p.bus.tryStart()
	return nil
}

// startFD begins an FD transmission for the winning port.
func (b *Bus) startFD(winner *Port) {
	frame := winner.fdq.pop()
	winner.notePop()
	b.busy = true
	dur := can.FDWireTime(frame, b.bitrate, b.fdDataBitrate)
	b.pend.kind, b.pend.port, b.pend.fd, b.pend.dur = txFD, winner, frame, dur
	b.sched.AfterEvent(dur, b.completeEvent)
}

// completeFD delivers a finished FD transmission. The interceptor sees
// the frame's identifier and may destroy it with TxCorrupt, exactly as on
// the classic path; the FD model has no drop or duplicate fault, so any
// other verdict delivers.
func (b *Bus) completeFD(tx *Port, frame can.FDFrame, dur time.Duration) {
	b.busy = false
	b.noteBusy(dur)
	b.creditFrameEnd()

	if b.intercept != nil && b.intercept(can.Frame{ID: frame.ID}) == TxCorrupt {
		b.noteErrorFrame(tx, frame.ID, dur)
		for _, p := range b.ports {
			if p != tx && !p.detached && p.state != BusOff {
				p.bumpREC(1)
			}
		}
		b.tryStart()
		return
	}

	b.noteDelivered(tx, frame.ID, dur, 0)
	msg := FDMessage{Frame: frame, Time: b.sched.Now(), Origin: tx.name}
	b.delivering = true
	for _, p := range b.ports {
		if p == tx || p.detached || p.state == BusOff || p.fdRecv == nil {
			continue
		}
		p.noteRx()
		p.fdRecv(msg)
	}
	b.delivering = false
	b.tryStart()
}
