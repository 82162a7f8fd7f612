// Package signal implements a DBC-style signal database: named, scaled
// physical values packed into CAN frame payloads.
//
// The Vector tooling the paper uses drives its vehicle simulation from such
// a database; the paper's Figures 6-8 are plots of decoded signals (engine
// RPM, road speed, gauge values). This package provides the same
// decode-whatever-arrives behaviour — which is exactly why the simulator
// "handles physically invalid values in the same way as physically
// plausible ones" (Fig 8): decoding is pure arithmetic on raw bits, with no
// plausibility checks unless a consumer applies Clamp explicitly.
package signal

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/can"
)

// Errors returned by signal packing.
var (
	ErrRange    = errors.New("signal: value outside representable range")
	ErrGeometry = errors.New("signal: bit geometry does not fit payload")
)

// Signal describes one scaled value inside a CAN payload. Bit numbering is
// Intel (little-endian): StartBit 0 is the least-significant bit of data
// byte 0, bit 8 the LSB of byte 1, and multi-bit values grow toward more
// significant bits.
type Signal struct {
	// Name identifies the signal within its message.
	Name string
	// StartBit is the little-endian position of the value's LSB.
	StartBit int
	// Bits is the width of the raw value (1..64).
	Bits int
	// Scale and Offset map raw to physical: phys = raw*Scale + Offset.
	Scale  float64
	Offset float64
	// Signed marks the raw value as two's-complement.
	Signed bool
	// Min and Max document the physical plausible range (not enforced on
	// decode; see Plausible).
	Min, Max float64
	// Unit is a display unit, e.g. "rpm", "km/h", "degC".
	Unit string
}

// validGeometry checks the signal fits inside a payload of length dlc bytes.
func (s Signal) validGeometry(dlc int) error {
	if s.Bits < 1 || s.Bits > 64 || s.StartBit < 0 || s.StartBit+s.Bits > dlc*8 {
		return fmt.Errorf("%w: %s start %d width %d in %d bytes",
			ErrGeometry, s.Name, s.StartBit, s.Bits, dlc)
	}
	return nil
}

// RawExtract pulls the unscaled raw value from data.
func (s Signal) RawExtract(data []byte) uint64 {
	var raw uint64
	for i := 0; i < s.Bits; i++ {
		bit := s.StartBit + i
		byteIdx, bitIdx := bit/8, bit%8
		if byteIdx >= len(data) {
			break // missing bytes read as zero, like a short frame on a real decoder
		}
		raw |= uint64(data[byteIdx]>>bitIdx&1) << i
	}
	return raw
}

// RawInsert writes the unscaled raw value into data in place.
func (s Signal) RawInsert(data []byte, raw uint64) error {
	if err := s.validGeometry(len(data)); err != nil {
		return err
	}
	for i := 0; i < s.Bits; i++ {
		bit := s.StartBit + i
		byteIdx, bitIdx := bit/8, bit%8
		mask := byte(1) << bitIdx
		if raw>>i&1 == 1 {
			data[byteIdx] |= mask
		} else {
			data[byteIdx] &^= mask
		}
	}
	return nil
}

// Decode converts the raw bits in data to a physical value. There is no
// range validation: garbage in, garbage out, by design (Fig 8).
func (s Signal) Decode(data []byte) float64 {
	raw := s.RawExtract(data)
	if s.Signed && s.Bits < 64 && raw&(1<<(s.Bits-1)) != 0 {
		return (float64(int64(raw)-int64(1)<<s.Bits))*s.Scale + s.Offset
	}
	if s.Signed && s.Bits == 64 {
		return float64(int64(raw))*s.Scale + s.Offset
	}
	return float64(raw)*s.Scale + s.Offset
}

// Encode writes the physical value into data, rounding to the nearest raw
// step. It returns ErrRange if the value is not representable in Bits.
func (s Signal) Encode(data []byte, value float64) error {
	if s.Scale == 0 {
		return fmt.Errorf("signal %s: zero scale", s.Name)
	}
	rawF := (value - s.Offset) / s.Scale
	var raw uint64
	if s.Signed {
		r := int64(roundHalfAway(rawF))
		lo, hi := int64(-1)<<(s.Bits-1), int64(1)<<(s.Bits-1)-1
		if s.Bits == 64 {
			lo, hi = -1<<63, 1<<63-1
		}
		if r < lo || r > hi {
			return fmt.Errorf("%w: %s = %v", ErrRange, s.Name, value)
		}
		raw = uint64(r) & maskBits(s.Bits)
	} else {
		r := roundHalfAway(rawF)
		if r < 0 || (s.Bits < 64 && uint64(r) > maskBits(s.Bits)) {
			return fmt.Errorf("%w: %s = %v", ErrRange, s.Name, value)
		}
		raw = uint64(r)
	}
	return s.RawInsert(data, raw)
}

// Plausible reports whether a decoded physical value lies within the
// documented [Min,Max] range. The instrument logic uses this to decide when
// to light a malfunction indicator.
func (s Signal) Plausible(value float64) bool {
	if s.Min == 0 && s.Max == 0 {
		return true // no documented range
	}
	return value >= s.Min && value <= s.Max
}

func maskBits(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<n - 1
}

func roundHalfAway(f float64) float64 {
	if f >= 0 {
		return float64(int64(f + 0.5))
	}
	return float64(int64(f - 0.5))
}

// MessageDef describes one periodic CAN message and its signals.
type MessageDef struct {
	// ID is the arbitration identifier.
	ID can.ID
	// Name identifies the message ("EngineData").
	Name string
	// Len is the frame DLC.
	Len uint8
	// Cycle is the nominal broadcast period (zero for event-driven).
	Cycle time.Duration
	// Template is the initial payload before signals are encoded; it models
	// constant filler bytes (pads of 0xFF, protocol constants) that real
	// traffic carries and that shape the byte-value distribution of Fig 4.
	Template []byte
	// Signals lists the packed signals.
	Signals []Signal
}

// Decode extracts all signals from a frame payload.
func (m *MessageDef) Decode(f can.Frame) map[string]float64 {
	out := make(map[string]float64, len(m.Signals))
	data := f.Data[:min(int(f.Len), can.MaxDataLen)]
	for _, s := range m.Signals {
		out[s.Name] = s.Decode(data)
	}
	return out
}

// Encode builds a frame from physical signal values. Signals not present in
// values encode as zero raw.
func (m *MessageDef) Encode(values map[string]float64) (can.Frame, error) {
	// Fixed-size scratch so the encode stays on the stack: a variable-length
	// make escapes, and periodic broadcasters (BCM status every 100 ms)
	// call this on the campaign hot path.
	var buf [can.MaxDataLen]byte
	data := buf[:m.Len]
	copy(data, m.Template)
	for _, s := range m.Signals {
		v, ok := values[s.Name]
		if !ok {
			continue
		}
		if err := s.Encode(data, v); err != nil {
			return can.Frame{}, fmt.Errorf("message %s: %w", m.Name, err)
		}
	}
	return can.New(m.ID, data)
}

// Validate checks every signal's geometry against the message DLC.
func (m *MessageDef) Validate() error {
	if m.Len > can.MaxDataLen {
		return fmt.Errorf("message %s: %w", m.Name, can.ErrDataLen)
	}
	if len(m.Template) > int(m.Len) {
		return fmt.Errorf("message %s: template longer than DLC", m.Name)
	}
	seen := make(map[string]bool, len(m.Signals))
	for _, s := range m.Signals {
		if seen[s.Name] {
			return fmt.Errorf("message %s: duplicate signal %s", m.Name, s.Name)
		}
		seen[s.Name] = true
		if err := s.validGeometry(int(m.Len)); err != nil {
			return fmt.Errorf("message %s: %w", m.Name, err)
		}
	}
	return nil
}

// Database is a set of message definitions keyed by identifier — the
// software analogue of a DBC file.
type Database struct {
	byID   map[can.ID]*MessageDef
	byName map[string]*MessageDef
}

// NewDatabase builds a database, validating every definition.
func NewDatabase(defs ...MessageDef) (*Database, error) {
	db := &Database{
		byID:   make(map[can.ID]*MessageDef, len(defs)),
		byName: make(map[string]*MessageDef, len(defs)),
	}
	for i := range defs {
		d := defs[i]
		if err := d.Validate(); err != nil {
			return nil, err
		}
		if _, dup := db.byID[d.ID]; dup {
			return nil, fmt.Errorf("duplicate message id %s", d.ID)
		}
		if _, dup := db.byName[d.Name]; dup {
			return nil, fmt.Errorf("duplicate message name %s", d.Name)
		}
		def := &d
		db.byID[d.ID] = def
		db.byName[d.Name] = def
	}
	return db, nil
}

// MustNewDatabase is NewDatabase panicking on error; for static databases.
func MustNewDatabase(defs ...MessageDef) *Database {
	db, err := NewDatabase(defs...)
	if err != nil {
		panic(err)
	}
	return db
}

// ByID returns the definition for an identifier.
func (db *Database) ByID(id can.ID) (*MessageDef, bool) {
	d, ok := db.byID[id]
	return d, ok
}

// ByName returns the definition with the given message name.
func (db *Database) ByName(name string) (*MessageDef, bool) {
	d, ok := db.byName[name]
	return d, ok
}
