package infotain

import (
	"errors"
	"testing"
	"time"

	"repro/internal/bcm"
	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/clock"
	"repro/internal/ecu"
	"repro/internal/signal"
)

func rig(t *testing.T) (*clock.Scheduler, *HeadUnit, *bcm.BCM) {
	t.Helper()
	s := clock.New()
	b := bus.New(s)
	h := New(ecu.New("headunit", s, b.Connect("headunit")), "secret")
	m := bcm.New(ecu.New("bcm", s, b.Connect("bcm")), bcm.Config{AckUnlock: true})
	return s, h, m
}

func TestAppUnlockReachesBCM(t *testing.T) {
	s, h, m := rig(t)
	if err := h.AppUnlock("secret"); err != nil {
		t.Fatalf("AppUnlock: %v", err)
	}
	s.RunUntil(50 * time.Millisecond)
	if !m.Unlocked() {
		t.Fatal("BCM not unlocked by app command")
	}
	if h.Commands() != 1 {
		t.Fatalf("Commands = %d", h.Commands())
	}
}

func TestAppLockReachesBCM(t *testing.T) {
	s, h, m := rig(t)
	h.AppUnlock("secret")
	s.RunUntil(50 * time.Millisecond)
	if err := h.AppLock("secret"); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(100 * time.Millisecond)
	if m.Unlocked() {
		t.Fatal("BCM not locked by app command")
	}
}

func TestBadTokenRejected(t *testing.T) {
	s, h, m := rig(t)
	if err := h.AppUnlock("wrong"); !errors.Is(err, ErrUnauthenticated) {
		t.Fatalf("err = %v, want ErrUnauthenticated", err)
	}
	s.RunUntil(50 * time.Millisecond)
	if m.Unlocked() {
		t.Fatal("unauthenticated command unlocked the doors")
	}
	if h.Commands() != 0 {
		t.Fatal("rejected command counted")
	}
}

func TestAckObserved(t *testing.T) {
	s, h, _ := rig(t)
	h.AppUnlock("secret")
	s.RunUntil(50 * time.Millisecond)
	if !h.AckSeen() {
		t.Fatal("unlock ack not observed by head unit")
	}
}

func TestAckResetPerCommand(t *testing.T) {
	s, h, _ := rig(t)
	h.AppUnlock("secret")
	s.RunUntil(50 * time.Millisecond)
	if !h.AckSeen() {
		t.Fatal("precondition failed")
	}
	// Lock does not produce an ack; the flag must reset when the command
	// is issued.
	h.AppLock("secret")
	if h.AckSeen() {
		t.Fatal("AckSeen not reset on new command")
	}
}

func TestCommandFrameMatchesPaperEncoding(t *testing.T) {
	// The relayed frame must be the paper's 0x215 unlock message.
	s := clock.New()
	b := bus.New(s)
	h := New(ecu.New("headunit", s, b.Connect("headunit")), "secret")
	peer := b.Connect("peer")
	var got []byte
	var gotID uint16
	peer.SetReceiver(func(m bus.Message) {
		gotID = uint16(m.Frame.ID)
		got = m.Frame.Data[:m.Frame.Len]
	})
	h.AppUnlock("secret")
	s.RunUntil(50 * time.Millisecond)
	if gotID != uint16(signal.IDBodyCommand) {
		t.Fatalf("id = %#x", gotID)
	}
	if len(got) != 7 || got[0] != signal.CmdUnlock || got[1] != 0x5F {
		t.Fatalf("payload = % X", got)
	}
}

func TestAuthenticatedRelayStampsMAC(t *testing.T) {
	s := clock.New()
	b := bus.New(s)
	h := New(ecu.New("headunit", s, b.Connect("headunit")), "secret")
	h.SetAuthenticate(true)
	peer := b.Connect("peer")
	var got []byte
	peer.SetReceiver(func(m bus.Message) { got = m.Frame.Data[:m.Frame.Len] })
	if err := h.AppUnlock("secret"); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(50 * time.Millisecond)
	if len(got) != 7 {
		t.Fatalf("payload = % X", got)
	}
	if got[6] != signal.CommandAuthCode(got[:6]) {
		t.Fatalf("byte 6 = %#x, not the MAC", got[6])
	}
}

func TestAuthenticatedCommandOpensHardenedBCM(t *testing.T) {
	s := clock.New()
	b := bus.New(s)
	h := New(ecu.New("headunit", s, b.Connect("headunit")), "secret")
	h.SetAuthenticate(true)
	m := bcm.New(ecu.New("bcm", s, b.Connect("bcm")), bcm.Config{Check: bcm.CheckAuthenticated})
	if err := h.AppUnlock("secret"); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(50 * time.Millisecond)
	if !m.Unlocked() {
		t.Fatal("authenticated unlock rejected by hardened BCM")
	}
}

func TestRelayFailsWhenHeadUnitPoweredOff(t *testing.T) {
	s := clock.New()
	b := bus.New(s)
	e := ecu.New("headunit", s, b.Connect("headunit"))
	h := New(e, "secret")
	e.PowerOff()
	if err := h.AppUnlock("secret"); err == nil {
		t.Fatal("powered-off head unit relayed a command")
	}
	if h.Commands() != 0 {
		t.Fatal("failed relay counted")
	}
}

func TestShortAckFrameIgnored(t *testing.T) {
	s := clock.New()
	b := bus.New(s)
	h := New(ecu.New("headunit", s, b.Connect("headunit")), "secret")
	peer := b.Connect("peer")
	peer.Send(can.MustNew(signal.IDUnlockAck, nil)) // zero-length ack id
	s.RunUntil(10 * time.Millisecond)
	if h.AckSeen() {
		t.Fatal("empty frame counted as ack")
	}
}
