// Package can implements the classic CAN 2.0A protocol data model used by
// the whole reproduction: standard data/remote frames with 11-bit
// identifiers, frame validation, the CRC-15 checksum, bit-stuffing
// accounting (needed to compute on-wire transmission time), and the
// stuffed bit encoding of a frame.
//
// The paper's fuzzer operates on standard frames only — "The target vehicle
// uses standard CAN data packets (11-bit ids)" (§VI) — so extended 29-bit
// frames are rejected by validation rather than silently truncated.
package can

import (
	"errors"
	"fmt"
	"strings"
)

// Protocol limits for classic CAN 2.0A.
const (
	// MaxID is the largest standard (11-bit) arbitration identifier.
	MaxID = 0x7FF // 2047
	// NumIDs is the size of the standard identifier space (Table III).
	NumIDs = MaxID + 1
	// MaxDataLen is the largest payload of a classic CAN data frame.
	MaxDataLen = 8
)

// Common validation errors, matchable with errors.Is.
var (
	ErrIDRange   = errors.New("can: identifier exceeds 11-bit range")
	ErrDataLen   = errors.New("can: payload longer than 8 bytes")
	ErrRemote    = errors.New("can: remote frame must not carry data")
	ErrTruncated = errors.New("can: truncated wire encoding")
)

// ID is a standard 11-bit CAN arbitration identifier. Lower values win
// arbitration (higher priority on the bus).
type ID uint16

// Valid reports whether the identifier fits in 11 bits.
func (id ID) Valid() bool { return id <= MaxID }

// String renders the identifier the way the paper's tables do: four
// uppercase hex digits (e.g. "043A").
func (id ID) String() string { return fmt.Sprintf("%04X", uint16(id)) }

// Frame is a classic CAN 2.0A frame. The zero value is a valid data frame
// with ID 0 and an empty payload.
type Frame struct {
	// ID is the 11-bit arbitration identifier.
	ID ID
	// Len is the data length code (0..8). For remote frames it encodes the
	// requested length and no data bytes are carried.
	Len uint8
	// Data holds the payload; only the first Len bytes are meaningful.
	Data [MaxDataLen]byte
	// Remote marks a remote transmission request (RTR) frame.
	Remote bool
}

// New builds a data frame from a payload slice. It returns an error if the
// identifier or payload is out of range.
func New(id ID, data []byte) (Frame, error) {
	var f Frame
	if !id.Valid() {
		return f, fmt.Errorf("%w: 0x%X", ErrIDRange, uint16(id))
	}
	if len(data) > MaxDataLen {
		return f, fmt.Errorf("%w: %d bytes", ErrDataLen, len(data))
	}
	f.ID = id
	f.Len = uint8(len(data))
	copy(f.Data[:], data)
	return f, nil
}

// MustNew is New for static frames known to be valid; it panics on error.
// Intended for tests and tables of constant frames.
func MustNew(id ID, data []byte) Frame {
	f, err := New(id, data)
	if err != nil {
		panic(err)
	}
	return f
}

// NewRemote builds a remote (RTR) frame requesting length dlc.
func NewRemote(id ID, dlc uint8) (Frame, error) {
	var f Frame
	if !id.Valid() {
		return f, fmt.Errorf("%w: 0x%X", ErrIDRange, uint16(id))
	}
	if dlc > MaxDataLen {
		return f, fmt.Errorf("%w: dlc %d", ErrDataLen, dlc)
	}
	f.ID = id
	f.Len = dlc
	f.Remote = true
	return f, nil
}

// Validate checks the frame against the classic CAN constraints.
func (f Frame) Validate() error {
	if !f.ID.Valid() {
		return fmt.Errorf("%w: 0x%X", ErrIDRange, uint16(f.ID))
	}
	if f.Len > MaxDataLen {
		return fmt.Errorf("%w: dlc %d", ErrDataLen, f.Len)
	}
	if f.Remote {
		for _, b := range f.Data[:f.Len] {
			if b != 0 {
				return ErrRemote
			}
		}
	}
	return nil
}

// String renders the frame in the paper's table layout: "ID LEN DATA...",
// e.g. "043A 8 1C 21 17 71 17 71 FF FF".
func (f Frame) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %d", f.ID, f.Len)
	if f.Remote {
		sb.WriteString(" R")
		return sb.String()
	}
	for _, b := range f.Data[:min(int(f.Len), MaxDataLen)] {
		fmt.Fprintf(&sb, " %02X", b)
	}
	return sb.String()
}
