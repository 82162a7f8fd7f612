package bus

import "repro/internal/can"

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

// SendRaw queues a raw bit sequence for transmission. The sequence is
// decoded once, here; from then on it queues, arbitrates and completes
// like a frame from Send, in the same FIFO. It arbitrates at the
// identifier read from its leading bits, which for a valid encoding is
// the frame's own, and holds the bus for its length plus the fixed-form
// trailer and interframe space, as Send would for the same frame. The
// callback, if non-nil, reports the eventual outcome. The caller may
// reuse bits once SendRaw returns.
func (p *Port) SendRaw(bits []byte, done func(RawResult)) error {
	f, err := can.DecodeBits(bits)
	if err != nil {
		f = can.Frame{ID: rawArbID(bits)}
	}
	wire := len(bits) + can.TrailerBits + can.InterframeSpace
	return p.enqueue(f, rawPart{corrupt: err != nil, bits: wire, done: done})
}

// rawArbID reads the arbitration priority of a raw sequence: the 11
// identifier bits after SOF, with stuff bits removed as a receiver
// removes them. A stuff bit is skipped whatever its value. A sequence
// too short to carry the identifier arbitrates at the lowest priority.
func rawArbID(bits []byte) can.ID {
	var id uint16
	n, run := 0, 0
	var last byte = 2 // sentinel: no previous bit
	for _, b := range bits {
		b &= 1
		if run == 5 {
			last, run = b, 1 // stuff bit
			continue
		}
		if b == last {
			run++
		} else {
			last, run = b, 1
		}
		if n > 0 {
			id = id<<1 | uint16(b)
		}
		if n++; n == 12 {
			return can.ID(id)
		}
	}
	return can.MaxID
}
