// Package bcm models the Body Control Module: the ECU that owns the
// central-locking actuator in the paper's bench-top experiment (Figs
// 11-12). An LED on the bench showed the lock state (off = locked,
// on = unlocked); here the LED is the Unlocked() accessor plus an optional
// callback.
//
// The command-parser strictness is configurable because it is exactly the
// variable of the paper's Table V experiment: the original firmware checked
// only "a specific byte value in byte position one in a message with a
// specific id"; adding a data-length check multiplied the fuzzer's
// time-to-unlock by ~4.5x, and the paper predicts a two-byte check would
// increase it further.
package bcm

import (
	"fmt"
	"time"

	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/ecu"
	"repro/internal/signal"
)

// CheckMode selects how strictly the BCM validates IDBodyCommand frames,
// reproducing the code change studied in Table V.
type CheckMode int

const (
	// CheckByteOnly accepts any frame on the command identifier whose first
	// byte is the command code (the paper's original firmware).
	CheckByteOnly CheckMode = iota + 1
	// CheckByteAndLength additionally requires the exact 7-byte DLC (the
	// paper's hardened variant: mean time-to-unlock grew from 431 s to
	// 1959 s).
	CheckByteAndLength
	// CheckTwoBytes additionally requires the source byte to match (the
	// paper: "If the change had been to check for a two byte value the time
	// increase would have been even greater").
	CheckTwoBytes
	// CheckAuthenticated requires the exact DLC and a valid truncated MAC
	// in the last payload byte (signal.CommandAuthCode) — the
	// "additions to ECU software to mitigate cyber attacks" of §VII.
	CheckAuthenticated
)

// String returns the mode name.
func (m CheckMode) String() string {
	switch m {
	case CheckByteOnly:
		return "single id and byte"
	case CheckByteAndLength:
		return "single id, byte plus data length"
	case CheckTwoBytes:
		return "single id, two bytes plus data length"
	case CheckAuthenticated:
		return "single id plus truncated MAC"
	default:
		return "unknown"
	}
}

// commandLen is the nominal BodyCommand DLC.
const commandLen = 7

// sourceByte is the expected second payload byte (0x5F, the 95 decimal of
// the paper's PC app).
const sourceByte = 0x5F

// Config tunes the BCM.
type Config struct {
	// Check selects the command-parser strictness (default CheckByteOnly).
	Check CheckMode
	// AckUnlock enables the unlock-acknowledgement broadcast added to the
	// paper's testbench so the fuzzer could detect success.
	AckUnlock bool
	// StartUnlocked sets the initial lock state (default: locked).
	StartUnlocked bool
}

// BCM is the body-control application.
type BCM struct {
	ecu *ecu.ECU
	cfg Config

	bcmRun
}

// bcmRun is the application's per-trial state. Reset assigns it whole,
// so a cold build (New calls Reset) and a warm reset start identically.
type bcmRun struct {
	unlocked bool
	alive    uint8
	ackSeq   uint8

	// cmdFrames counts every frame seen on the command identifier;
	// nearMisses counts frames carrying a valid command byte that failed the
	// configured strictness check. Both are feedback signals for guided
	// fuzzing: a near-miss means the fuzzer is one constraint away from the
	// Table V unlock.
	cmdFrames  uint64
	nearMisses uint64
}

// New builds the BCM application on an ECU runtime.
func New(e *ecu.ECU, cfg Config) *BCM {
	if cfg.Check == 0 {
		cfg.Check = CheckByteOnly
	}
	b := &BCM{ecu: e, cfg: cfg}
	e.Handle(signal.IDBodyCommand, b.onCommand)
	e.Periodic(100*time.Millisecond, b.broadcastStatus)
	b.Reset()
	return b
}

// ECU exposes the underlying runtime.
func (b *BCM) ECU() *ecu.ECU { return b.ecu }

// Reset returns the application state to its as-built form; New runs the
// same code. The lock state starts at the configured value, sequence
// numbers rewind and the feedback counters zero. The underlying ECU
// runtime (reset separately via ECU().Reset, which re-arms the status
// broadcast) is retained.
func (b *BCM) Reset() {
	b.bcmRun = bcmRun{unlocked: b.cfg.StartUnlocked}
}

// Unlocked reports the lock state (true = unlocked = bench LED on).
func (b *BCM) Unlocked() bool { return b.unlocked }

// CommandStats returns how many frames arrived on the command identifier
// and how many were near-misses (valid command byte, failed strictness
// check) — the guided fuzzer's gradient toward the unlock.
func (b *BCM) CommandStats() (cmdFrames, nearMisses uint64) {
	return b.cmdFrames, b.nearMisses
}

// acceptFrame reports whether the frame is a valid command under the
// configured check mode, and returns the command byte.
func (b *BCM) acceptFrame(m bus.Message) (byte, bool) {
	f := m.Frame
	b.cmdFrames++
	if f.Remote || f.Len < 1 {
		return 0, false
	}
	cmd := f.Data[0]
	if cmd != signal.CmdLock && cmd != signal.CmdUnlock {
		return 0, false
	}
	switch b.cfg.Check {
	case CheckByteAndLength:
		if f.Len != commandLen {
			b.nearMisses++
			return 0, false
		}
	case CheckTwoBytes:
		if f.Len != commandLen || f.Data[1] != sourceByte {
			b.nearMisses++
			return 0, false
		}
	case CheckAuthenticated:
		if f.Len != commandLen || f.Data[6] != signal.CommandAuthCode(f.Data[:6]) {
			b.nearMisses++
			return 0, false
		}
	}
	return cmd, true
}

func (b *BCM) onCommand(m bus.Message) {
	cmd, ok := b.acceptFrame(m)
	if !ok {
		return
	}
	switch cmd {
	case signal.CmdUnlock:
		b.unlocked = true
		if b.cfg.AckUnlock {
			b.sendAck()
		}
	case signal.CmdLock:
		b.unlocked = false
	}
}

// sendAck broadcasts the unlock acknowledgement the augmented testbench
// used as its fuzzing oracle.
func (b *BCM) sendAck() {
	b.ackSeq++
	_ = b.ecu.Send(ackFrame(b.ackSeq))
}

// broadcastStatus emits the periodic BodyStatus message.
func (b *BCM) broadcastStatus() {
	b.alive++
	_ = b.ecu.Send(statusFrame(b.unlocked, b.alive))
}

// ackTemplate and statusTemplate are the UnlockAck and BodyStatus frames
// as the vehicle database encodes them with AckCode set and every other
// signal zero, built once so each send only writes its own signals.
var (
	ackTemplate    = dbFrame(signal.IDUnlockAck, map[string]float64{"AckCode": signal.UnlockAckCode})
	statusTemplate = dbFrame(signal.IDBodyStatus, nil)
)

// dbFrame encodes one message of the vehicle database; the values are
// constants, so a failure is a broken database.
func dbFrame(id can.ID, values map[string]float64) can.Frame {
	def, ok := signal.VehicleDB().ByID(id)
	if !ok {
		panic(fmt.Sprintf("bcm: vehicle database lacks %#x", uint16(id)))
	}
	f, err := def.Encode(values)
	if err != nil {
		panic("bcm: " + err.Error())
	}
	return f
}

// ackFrame is the UnlockAck frame carrying seq in AckSeq (bits 8-15).
func ackFrame(seq uint8) can.Frame {
	f := ackTemplate
	f.Data[1] = seq
	return f
}

// statusFrame is the BodyStatus frame with DoorsLocked (bit 0) set while
// locked and alive in BodyAlive (bits 8-15).
func statusFrame(unlocked bool, alive uint8) can.Frame {
	f := statusTemplate
	if !unlocked {
		f.Data[0] |= 1
	}
	f.Data[1] = alive
	return f
}
