// Package infotain models the infotainment head unit of the paper's remote
// unlock scenario (Fig 12): the manufacturer's smartphone app sends a
// lock/unlock command to the head unit over a (nominally) secure channel,
// and the head unit relays it onto the vehicle CAN bus as a BodyCommand
// frame. The paper's PC app (Fig 13) played the smartphone role; here the
// AppLock/AppUnlock methods do.
package infotain

import (
	"errors"

	"repro/internal/bus"
	"repro/internal/ecu"
	"repro/internal/signal"
)

// ErrUnauthenticated is returned when an app command arrives without a
// valid session token. The app channel is the "secure connection (or
// should be)" of Fig 12.
var ErrUnauthenticated = errors.New("infotain: app session not authenticated")

// HeadUnit is the infotainment application.
type HeadUnit struct {
	ecu *ecu.ECU
	db  *signal.Database

	token string
	auth  bool

	headUnitRun
}

// headUnitRun is the application's per-trial state. Reset assigns it
// whole, so a cold build (New calls Reset) and a warm reset start
// identically.
type headUnitRun struct {
	seq      uint8
	commands uint64
	lastAck  bool
}

// New builds the head unit on an ECU runtime. token is the shared secret
// the paired app must present (the bench used an implicit pairing).
func New(e *ecu.ECU, token string) *HeadUnit {
	h := &HeadUnit{ecu: e, db: signal.VehicleDB(), token: token}
	e.Handle(signal.IDUnlockAck, h.onAck)
	h.Reset()
	return h
}

// ECU exposes the underlying runtime.
func (h *HeadUnit) ECU() *ecu.ECU { return h.ecu }

// Reset returns the application state to its as-built form; New runs the
// same code. The command sequence and counters rewind and the
// acknowledgement flag clears; the pairing token and authentication mode
// survive.
func (h *HeadUnit) Reset() {
	h.headUnitRun = headUnitRun{}
}

// SetAuthenticate enables the truncated-MAC command authentication of the
// hardened BCM variant (bcm.CheckAuthenticated): the head unit stamps
// byte 6 of each relayed command with signal.CommandAuthCode.
func (h *HeadUnit) SetAuthenticate(on bool) { h.auth = on }

// Commands returns how many app commands were relayed onto the bus.
func (h *HeadUnit) Commands() uint64 { return h.commands }

// AckSeen reports whether an unlock acknowledgement has been observed
// since the last command.
func (h *HeadUnit) AckSeen() bool { return h.lastAck }

// AppUnlock relays an authenticated unlock request onto the CAN bus.
func (h *HeadUnit) AppUnlock(token string) error {
	return h.relay(token, signal.CmdUnlock)
}

// AppLock relays an authenticated lock request onto the CAN bus.
func (h *HeadUnit) AppLock(token string) error {
	return h.relay(token, signal.CmdLock)
}

func (h *HeadUnit) relay(token string, cmd byte) error {
	if token != h.token {
		return ErrUnauthenticated
	}
	h.seq++
	h.lastAck = false
	def, ok := h.db.ByID(signal.IDBodyCommand)
	if !ok {
		return errors.New("infotain: BodyCommand not in database")
	}
	f, err := def.Encode(map[string]float64{
		"Command":  float64(cmd),
		"Sequence": float64(h.seq),
	})
	if err != nil {
		return err
	}
	if h.auth {
		signal.AuthenticateCommand(f.Data[:f.Len])
	}
	if err := h.ecu.Send(f); err != nil {
		return err
	}
	h.commands++
	return nil
}

func (h *HeadUnit) onAck(m bus.Message) {
	if m.Frame.Len >= 1 && m.Frame.Data[0] == signal.UnlockAckCode {
		h.lastAck = true
	}
}
