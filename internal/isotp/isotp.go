// Package isotp implements the ISO 15765-2 transport protocol over CAN
// (single frames, first/consecutive frames, flow control). UDS diagnostics
// (package uds) runs on top of it: ECU reprogramming and diagnostic
// payloads exceed the 8-byte CAN limit and must be segmented.
//
// The implementation is single-threaded on the simulation scheduler, like
// everything else in this reproduction.
package isotp

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/clock"
)

// Protocol limits.
const (
	// MaxPayload is the largest ISO-TP message (12-bit length field).
	MaxPayload = 4095
	// maxSFLen is the largest single-frame payload on classic CAN.
	maxSFLen = 7
)

// PCI frame types (high nibble of the first payload byte).
const (
	pciSingle      = 0x0
	pciFirst       = 0x1
	pciConsecutive = 0x2
	pciFlowControl = 0x3
)

// Flow-control statuses.
const (
	fcContinue = 0x0
	fcWait     = 0x1
	fcOverflow = 0x2
)

// Errors reported by the endpoint.
var (
	ErrTooLong      = errors.New("isotp: payload exceeds 4095 bytes")
	ErrBusy         = errors.New("isotp: transmission already in progress")
	ErrSequence     = errors.New("isotp: consecutive frame sequence error")
	ErrTimeout      = errors.New("isotp: timeout waiting for peer")
	ErrOverflow     = errors.New("isotp: receiver signalled overflow")
	ErrMalformed    = errors.New("isotp: malformed protocol frame")
	ErrUnexpectedFC = errors.New("isotp: unexpected flow control")
)

// Config tunes an endpoint.
type Config struct {
	// BlockSize is the BS value advertised in flow control (0 = no limit).
	BlockSize uint8
	// STmin is the minimum separation time advertised to the peer.
	STmin time.Duration
	// Timeout bounds waiting for the peer (N_Bs / N_Cr). Zero selects the
	// ISO default of one second.
	Timeout time.Duration
	// Pad extends every transmitted frame to the full 8 bytes with 0xCC
	// fill, as most production ECUs configure their TP (constant-length
	// frames defeat simple traffic analysis and some controllers require
	// them). Reception always accepts both padded and unpadded frames.
	Pad bool
}

// padByte is the ISO-recommended fill for padded TP frames.
const padByte = 0xCC

func (c Config) withDefaults() Config {
	if c.Timeout == 0 {
		c.Timeout = time.Second
	}
	return c
}

// Endpoint is one side of an ISO-TP connection: it transmits on txID and
// listens on rxID. Wire HandleFrame to the owning ECU's dispatch for rxID.
type Endpoint struct {
	sched *clock.Scheduler
	send  func(can.Frame) error
	txID  can.ID
	rxID  can.ID
	cfg   Config

	onMessage func([]byte)
	onError   func(error)

	tx *txState
	rx *rxState
}

type txState struct {
	payload []byte
	offset  int
	seq     uint8
	// blockRemaining counts CFs allowed before the next FC (0 = unlimited).
	blockRemaining int
	unlimitedBlock bool
	stmin          time.Duration
	waitingFC      bool
	timer          *clock.Timer
}

type rxState struct {
	buf      []byte
	expected int
	seq      uint8
	sinceFC  int
	timer    *clock.Timer
}

// NewEndpoint creates an endpoint. send is the raw frame transmitter
// (typically Port.Send or ECU.Send); onMessage receives completed inbound
// payloads.
func NewEndpoint(sched *clock.Scheduler, send func(can.Frame) error, txID, rxID can.ID, cfg Config, onMessage func([]byte)) *Endpoint {
	if sched == nil || send == nil {
		panic("isotp: nil scheduler or send function")
	}
	return &Endpoint{
		sched:     sched,
		send:      send,
		txID:      txID,
		rxID:      rxID,
		cfg:       cfg.withDefaults(),
		onMessage: onMessage,
	}
}

// OnError registers a callback for aborted transfers.
func (ep *Endpoint) OnError(fn func(error)) { ep.onError = fn }

// Busy reports whether an outbound transfer is in progress.
func (ep *Endpoint) Busy() bool { return ep.tx != nil }

func (ep *Endpoint) fail(err error) {
	if ep.onError != nil {
		ep.onError(err)
	}
}

// Send transmits a payload. Payloads of at most seven bytes go out as a
// single frame; longer ones use first/consecutive frames subject to the
// peer's flow control. Send is asynchronous: it returns once the first
// frame is queued.
func (ep *Endpoint) Send(payload []byte) error {
	if len(payload) > MaxPayload {
		return ErrTooLong
	}
	if ep.tx != nil {
		return ErrBusy
	}
	if len(payload) <= maxSFLen {
		data := make([]byte, 1+len(payload))
		data[0] = byte(pciSingle<<4 | len(payload))
		copy(data[1:], payload)
		data = ep.pad(data)
		f, err := can.New(ep.txID, data)
		if err != nil {
			return err
		}
		return ep.send(f)
	}

	// Multi-frame: FF carries 6 bytes, then CFs of up to 7.
	buf := make([]byte, len(payload))
	copy(buf, payload)
	st := &txState{payload: buf, offset: 6, seq: 1, waitingFC: true}
	data := make([]byte, 8)
	data[0] = byte(pciFirst<<4) | byte(len(payload)>>8&0x0F)
	data[1] = byte(len(payload))
	copy(data[2:], payload[:6])
	f, err := can.New(ep.txID, data)
	if err != nil {
		return err
	}
	if err := ep.send(f); err != nil {
		return err
	}
	ep.tx = st
	st.timer = ep.sched.After(ep.cfg.Timeout, func() {
		ep.tx = nil
		ep.fail(fmt.Errorf("%w: no flow control", ErrTimeout))
	})
	return nil
}

// HandleFrame processes a frame addressed to this endpoint (ID == rxID).
// Wire it into the owner's dispatch.
func (ep *Endpoint) HandleFrame(m bus.Message) {
	f := m.Frame
	if f.ID != ep.rxID || f.Remote || f.Len == 0 {
		return
	}
	switch f.Data[0] >> 4 {
	case pciSingle:
		ep.handleSingle(f)
	case pciFirst:
		ep.handleFirst(f)
	case pciConsecutive:
		ep.handleConsecutive(f)
	case pciFlowControl:
		ep.handleFlowControl(f)
	}
}

func (ep *Endpoint) handleSingle(f can.Frame) {
	n := int(f.Data[0] & 0x0F)
	if n == 0 || n > maxSFLen || int(f.Len) < 1+n {
		ep.fail(fmt.Errorf("%w: single frame length %d", ErrMalformed, n))
		return
	}
	ep.abortRx()
	payload := make([]byte, n)
	copy(payload, f.Data[1:1+n])
	if ep.onMessage != nil {
		ep.onMessage(payload)
	}
}

func (ep *Endpoint) handleFirst(f can.Frame) {
	if f.Len < 8 {
		ep.fail(fmt.Errorf("%w: short first frame", ErrMalformed))
		return
	}
	total := int(f.Data[0]&0x0F)<<8 | int(f.Data[1])
	if total <= maxSFLen {
		ep.fail(fmt.Errorf("%w: first frame with SF-size payload", ErrMalformed))
		return
	}
	ep.abortRx()
	st := &rxState{expected: total, seq: 1}
	st.buf = append(st.buf, f.Data[2:8]...)
	ep.rx = st
	ep.sendFlowControl(fcContinue)
	ep.armRxTimer()
}

func (ep *Endpoint) handleConsecutive(f can.Frame) {
	st := ep.rx
	if st == nil {
		return // stray CF: ignore, per ISO
	}
	seq := f.Data[0] & 0x0F
	if seq != st.seq {
		ep.abortRx()
		ep.fail(fmt.Errorf("%w: got %d want %d", ErrSequence, seq, st.seq))
		return
	}
	st.seq = (st.seq + 1) & 0x0F
	remaining := st.expected - len(st.buf)
	n := int(f.Len) - 1
	if n > remaining {
		n = remaining
	}
	st.buf = append(st.buf, f.Data[1:1+n]...)
	if len(st.buf) >= st.expected {
		payload := st.buf
		ep.abortRx()
		if ep.onMessage != nil {
			ep.onMessage(payload)
		}
		return
	}
	st.sinceFC++
	if ep.cfg.BlockSize > 0 && st.sinceFC >= int(ep.cfg.BlockSize) {
		st.sinceFC = 0
		ep.sendFlowControl(fcContinue)
	}
	ep.armRxTimer()
}

func (ep *Endpoint) handleFlowControl(f can.Frame) {
	st := ep.tx
	if st == nil || !st.waitingFC {
		ep.fail(ErrUnexpectedFC)
		return
	}
	if f.Len < 3 {
		ep.fail(fmt.Errorf("%w: short flow control", ErrMalformed))
		return
	}
	switch f.Data[0] & 0x0F {
	case fcContinue:
		st.waitingFC = false
		if st.timer != nil {
			st.timer.Stop()
		}
		bs := int(f.Data[1])
		st.blockRemaining = bs
		st.unlimitedBlock = bs == 0
		st.stmin = decodeSTmin(f.Data[2])
		ep.sched.After(st.stmin, ep.sendNextCF)
	case fcWait:
		// Re-arm the timeout and keep waiting.
		if st.timer != nil {
			st.timer.Stop()
		}
		st.timer = ep.sched.After(ep.cfg.Timeout, func() {
			ep.tx = nil
			ep.fail(fmt.Errorf("%w: peer kept waiting", ErrTimeout))
		})
	case fcOverflow:
		ep.tx = nil
		if st.timer != nil {
			st.timer.Stop()
		}
		ep.fail(ErrOverflow)
	default:
		ep.fail(fmt.Errorf("%w: flow status %d", ErrMalformed, f.Data[0]&0x0F))
	}
}

// sendNextCF transmits one consecutive frame and schedules the next. If the
// controller's transmit mailbox is full the frame is retried shortly after,
// as a real TP stack does when waiting for a free mailbox.
func (ep *Endpoint) sendNextCF() {
	st := ep.tx
	if st == nil || st.waitingFC {
		return
	}
	n := len(st.payload) - st.offset
	if n > 7 {
		n = 7
	}
	data := make([]byte, 1+n)
	data[0] = byte(pciConsecutive<<4) | st.seq
	copy(data[1:], st.payload[st.offset:st.offset+n])
	data = ep.pad(data)
	f, err := can.New(ep.txID, data)
	if err != nil {
		ep.tx = nil
		ep.fail(err)
		return
	}
	if err := ep.send(f); err != nil {
		if errors.Is(err, bus.ErrTxQueueFull) {
			ep.sched.After(500*time.Microsecond, ep.sendNextCF)
			return
		}
		ep.tx = nil
		ep.fail(err)
		return
	}
	st.seq = (st.seq + 1) & 0x0F
	st.offset += n
	if st.offset >= len(st.payload) {
		ep.tx = nil
		return
	}
	if !st.unlimitedBlock {
		st.blockRemaining--
		if st.blockRemaining <= 0 {
			st.waitingFC = true
			st.timer = ep.sched.After(ep.cfg.Timeout, func() {
				ep.tx = nil
				ep.fail(fmt.Errorf("%w: no flow control mid-transfer", ErrTimeout))
			})
			return
		}
	}
	ep.sched.After(st.stmin, ep.sendNextCF)
}

func (ep *Endpoint) sendFlowControl(status byte) {
	data := ep.pad([]byte{byte(pciFlowControl<<4) | status, ep.cfg.BlockSize, encodeSTmin(ep.cfg.STmin)})
	f, err := can.New(ep.txID, data)
	if err == nil {
		err = ep.send(f)
	}
	if err != nil {
		ep.fail(fmt.Errorf("isotp: send flow control: %w", err))
	}
}

// pad extends a TP frame to 8 bytes when the endpoint is configured for
// padded transmission.
func (ep *Endpoint) pad(data []byte) []byte {
	if !ep.cfg.Pad || len(data) >= can.MaxDataLen {
		return data
	}
	out := make([]byte, can.MaxDataLen)
	n := copy(out, data)
	for i := n; i < can.MaxDataLen; i++ {
		out[i] = padByte
	}
	return out
}

func (ep *Endpoint) armRxTimer() {
	st := ep.rx
	if st == nil {
		return
	}
	if st.timer != nil {
		st.timer.Stop()
	}
	st.timer = ep.sched.After(ep.cfg.Timeout, func() {
		ep.rx = nil
		ep.fail(fmt.Errorf("%w: consecutive frame missing", ErrTimeout))
	})
}

func (ep *Endpoint) abortRx() {
	if ep.rx != nil && ep.rx.timer != nil {
		ep.rx.timer.Stop()
	}
	ep.rx = nil
}

// decodeSTmin interprets the STmin byte: 0x00-0x7F milliseconds,
// 0xF1-0xF9 hundreds of microseconds, anything else treated as the maximum
// 127 ms per ISO.
func decodeSTmin(b byte) time.Duration {
	switch {
	case b <= 0x7F:
		return time.Duration(b) * time.Millisecond
	case b >= 0xF1 && b <= 0xF9:
		return time.Duration(b-0xF0) * 100 * time.Microsecond
	default:
		return 127 * time.Millisecond
	}
}

// encodeSTmin converts a duration to the nearest representable STmin byte.
func encodeSTmin(d time.Duration) byte {
	if d <= 0 {
		return 0
	}
	if d < time.Millisecond {
		steps := (d + 50*time.Microsecond) / (100 * time.Microsecond)
		if steps < 1 {
			steps = 1
		}
		if steps > 9 {
			steps = 9
		}
		return 0xF0 + byte(steps)
	}
	ms := d / time.Millisecond
	if ms > 0x7F {
		ms = 0x7F
	}
	return byte(ms)
}
