// Package core implements the paper's contribution: a CAN-bus fuzzer with
// the architecture of §V — "a timing thread for regular CAN data
// transmission, a random bytes generator for the fuzzed CAN messages, a
// communications API handling module, and a CAN bus traffic monitor" —
// mapped onto this reproduction as a paced transmitter on the virtual
// clock, a seeded frame generator, a bus port, and a monitor feeding the
// test oracles.
//
// The generator covers the fuzzable elements of Table III (identifier,
// payload length, payload bytes, transmission rate) and the configuration
// breadth of the paper's UI (Fig 3): "the fuzzer can be programmed to
// generate a variation on a single bit in a single message, to every bit
// in every message" — from single-bit mutation of seed frames, through
// targeted random fuzzing around observed identifiers, to exhaustive
// sweeps of the full space.
package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/can"
)

// Mode selects the generation strategy.
type Mode int

const (
	// ModeRandom draws every frame uniformly from the configured ranges
	// (the paper's primary mode).
	ModeRandom Mode = iota + 1
	// ModeMutate flips MutateBits random bits per frame in frames drawn
	// from the seed corpus ("a variation on a single bit in a single
	// message").
	ModeMutate
	// ModeSweep enumerates the space deterministically: every identifier
	// for every payload value of a fixed length (the combinatorial
	// discussion of §V).
	ModeSweep
	// ModeGuided marks a coverage-guided campaign: generation is driven by
	// an external feedback engine (internal/guided) installed with
	// WithFrameSource, which evolves a corpus from target-response novelty.
	// Without a source attached the mode degrades to ModeRandom — §V's
	// blind fuzzer — so a guided Config stays runnable anywhere.
	ModeGuided
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeRandom:
		return "random"
	case ModeMutate:
		return "mutate"
	case ModeSweep:
		return "sweep"
	case ModeGuided:
		return "guided"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// MinInterval is the fuzzer's fastest transmission rate: "The fuzzer
// currently has a maximum message transmission rate of one message per
// millisecond" (§VI).
const MinInterval = time.Millisecond

// Config is the fuzzer configuration — the programmatic equivalent of the
// paper's UI screen (Fig 3).
type Config struct {
	// Seed makes the campaign reproducible.
	Seed int64
	// Mode selects the generation strategy (default ModeRandom).
	Mode Mode

	// IDMin and IDMax bound the fuzzed identifier range (Table III row
	// "CAN Id": {0..2047}).
	IDMin, IDMax can.ID
	// TargetIDs, when non-empty, restricts identifiers to the given list —
	// the targeted fuzzing of §VII ("fuzzing around known message ids
	// monitored on the CAN bus").
	TargetIDs []can.ID

	// LenMin and LenMax bound the payload length (Table III row "Payload
	// length": {0..8}).
	LenMin, LenMax int
	// ByteMin and ByteMax bound each payload byte value (Table III row
	// "Payload byte").
	ByteMin, ByteMax int

	// Interval is the transmission period (Table III row "Rate"); clamped
	// to MinInterval.
	Interval time.Duration

	// Corpus seeds ModeMutate and ModeGuided; the other modes ignore it.
	Corpus []can.Frame
	// MutateBits is the number of bits flipped per mutated frame.
	MutateBits int
	// MutateID includes the 11-bit identifier in the mutable region.
	MutateID bool

	// SweepLen fixes the payload length for ModeSweep.
	SweepLen int
}

// Validation errors.
var (
	ErrIDRange     = errors.New("core: identifier range invalid")
	ErrLenRange    = errors.New("core: payload length range invalid")
	ErrByteRange   = errors.New("core: byte value range invalid")
	ErrEmptyCorpus = errors.New("core: mutate mode requires a seed corpus")
)

// withDefaults fills zero values with the paper's defaults (full Table III
// ranges at the 1 ms maximum rate).
func (c Config) withDefaults() Config {
	if c.Mode == 0 {
		c.Mode = ModeRandom
	}
	if c.IDMax == 0 {
		c.IDMax = can.MaxID
	}
	if c.LenMax == 0 {
		c.LenMax = can.MaxDataLen
	}
	if c.ByteMax == 0 {
		c.ByteMax = 255
	}
	if c.Interval < MinInterval {
		c.Interval = MinInterval
	}
	if c.MutateBits == 0 {
		c.MutateBits = 1
	}
	return c
}

// validate checks range consistency after defaulting.
func (c Config) validate() error {
	if c.IDMin > c.IDMax || c.IDMax > can.MaxID {
		return fmt.Errorf("%w: [%d,%d]", ErrIDRange, c.IDMin, c.IDMax)
	}
	for _, id := range c.TargetIDs {
		if !id.Valid() {
			return fmt.Errorf("%w: target id %#x", ErrIDRange, uint16(id))
		}
	}
	if c.LenMin < 0 || c.LenMin > c.LenMax || c.LenMax > can.MaxDataLen {
		return fmt.Errorf("%w: [%d,%d]", ErrLenRange, c.LenMin, c.LenMax)
	}
	if c.ByteMin < 0 || c.ByteMin > c.ByteMax || c.ByteMax > 255 {
		return fmt.Errorf("%w: [%d,%d]", ErrByteRange, c.ByteMin, c.ByteMax)
	}
	if c.Mode == ModeMutate && len(c.Corpus) == 0 {
		return ErrEmptyCorpus
	}
	if c.Mode == ModeSweep && (c.SweepLen < 0 || c.SweepLen > can.MaxDataLen) {
		return fmt.Errorf("%w: sweep length %d", ErrLenRange, c.SweepLen)
	}
	return nil
}

// SpaceSize returns the number of distinct frames the configuration can
// emit (for ModeRandom and ModeSweep); used for coverage reporting and the
// Table III combinatorics. The size saturates at math.MaxUint64 — the full
// 8-byte space (2048 * 256^8) does not fit in 64 bits, which is rather the
// paper's point about combinatorial explosion.
func (c Config) SpaceSize() uint64 {
	c = c.withDefaults()
	var ids uint64
	if len(c.TargetIDs) > 0 {
		ids = uint64(len(c.TargetIDs))
	} else {
		ids = uint64(c.IDMax-c.IDMin) + 1
	}
	byteVals := uint64(c.ByteMax-c.ByteMin) + 1
	if c.Mode == ModeSweep {
		n := ids
		for i := 0; i < c.SweepLen; i++ {
			n = satMul(n, byteVals)
		}
		return n
	}
	var total uint64
	for l := c.LenMin; l <= c.LenMax; l++ {
		n := ids
		for i := 0; i < l; i++ {
			n = satMul(n, byteVals)
		}
		total = satAdd(total, n)
	}
	return total
}

// satMul multiplies with saturation at math.MaxUint64.
func satMul(a, b uint64) uint64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxUint64/b {
		return math.MaxUint64
	}
	return a * b
}

// satAdd adds with saturation at math.MaxUint64.
func satAdd(a, b uint64) uint64 {
	if a > math.MaxUint64-b {
		return math.MaxUint64
	}
	return a + b
}
