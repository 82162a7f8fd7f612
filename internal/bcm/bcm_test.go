package bcm

import (
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/clock"
	"repro/internal/ecu"
	"repro/internal/signal"
)

func rig(t *testing.T, cfg Config) (*clock.Scheduler, *BCM, *bus.Port) {
	t.Helper()
	s := clock.New()
	b := bus.New(s)
	e := ecu.New("bcm", s, b.Connect("bcm"))
	m := New(e, cfg)
	peer := b.Connect("peer")
	return s, m, peer
}

// command builds a well-formed 7-byte BodyCommand frame.
func command(cmd byte) can.Frame {
	return can.MustNew(signal.IDBodyCommand, []byte{cmd, 0x5F, 0x01, 0x00, 0x00, 0x01, 0x20})
}

func TestUnlockAndLock(t *testing.T) {
	s, m, peer := rig(t, Config{})
	if m.Unlocked() {
		t.Fatal("starts unlocked")
	}
	peer.Send(command(signal.CmdUnlock))
	s.RunUntil(10 * time.Millisecond)
	if !m.Unlocked() {
		t.Fatal("unlock command ignored")
	}
	peer.Send(command(signal.CmdLock))
	s.RunUntil(20 * time.Millisecond)
	if m.Unlocked() {
		t.Fatal("lock command ignored")
	}
}

func TestStartUnlocked(t *testing.T) {
	_, m, _ := rig(t, Config{StartUnlocked: true})
	if !m.Unlocked() {
		t.Fatal("StartUnlocked ignored")
	}
}

func TestUnknownCommandByteIgnored(t *testing.T) {
	s, m, peer := rig(t, Config{})
	peer.Send(can.MustNew(signal.IDBodyCommand, []byte{0x42, 0x5F, 1, 0, 0, 1, 0x20}))
	s.RunUntil(10 * time.Millisecond)
	if m.Unlocked() {
		t.Fatal("unknown command unlocked the doors")
	}
}

func TestOtherIDIgnored(t *testing.T) {
	s, m, peer := rig(t, Config{})
	peer.Send(can.MustNew(0x216, []byte{signal.CmdUnlock}))
	s.RunUntil(10 * time.Millisecond)
	if m.Unlocked() {
		t.Fatal("wrong identifier unlocked the doors")
	}
}

func TestRemoteFrameIgnored(t *testing.T) {
	s, m, peer := rig(t, Config{})
	f, _ := can.NewRemote(signal.IDBodyCommand, 7)
	peer.Send(f)
	s.RunUntil(10 * time.Millisecond)
	if m.Unlocked() {
		t.Fatal("remote frame unlocked the doors")
	}
}

func TestCheckByteOnlyAcceptsAnyLength(t *testing.T) {
	// The paper's original firmware: a short fuzz frame with the right
	// first byte unlocks.
	s, m, peer := rig(t, Config{Check: CheckByteOnly})
	peer.Send(can.MustNew(signal.IDBodyCommand, []byte{signal.CmdUnlock}))
	s.RunUntil(10 * time.Millisecond)
	if !m.Unlocked() {
		t.Fatal("byte-only check rejected 1-byte command")
	}
}

func TestCheckByteAndLengthRequiresDLC7(t *testing.T) {
	s, m, peer := rig(t, Config{Check: CheckByteAndLength})
	peer.Send(can.MustNew(signal.IDBodyCommand, []byte{signal.CmdUnlock}))
	s.RunUntil(10 * time.Millisecond)
	if m.Unlocked() {
		t.Fatal("length check accepted short frame")
	}
	peer.Send(command(signal.CmdUnlock))
	s.RunUntil(20 * time.Millisecond)
	if !m.Unlocked() {
		t.Fatal("length check rejected well-formed frame")
	}
}

func TestCheckTwoBytesRequiresSource(t *testing.T) {
	s, m, peer := rig(t, Config{Check: CheckTwoBytes})
	peer.Send(can.MustNew(signal.IDBodyCommand, []byte{signal.CmdUnlock, 0x00, 1, 0, 0, 1, 0x20}))
	s.RunUntil(10 * time.Millisecond)
	if m.Unlocked() {
		t.Fatal("two-byte check accepted wrong source byte")
	}
	peer.Send(command(signal.CmdUnlock))
	s.RunUntil(20 * time.Millisecond)
	if !m.Unlocked() {
		t.Fatal("two-byte check rejected well-formed frame")
	}
}

func TestUnlockAckBroadcast(t *testing.T) {
	s, m, peer := rig(t, Config{AckUnlock: true})
	var acks int
	peer.SetReceiver(func(msg bus.Message) {
		if msg.Frame.ID == signal.IDUnlockAck && msg.Frame.Data[0] == signal.UnlockAckCode {
			acks++
		}
	})
	peer.Send(command(signal.CmdUnlock))
	s.RunUntil(50 * time.Millisecond)
	if acks != 1 {
		t.Fatalf("acks = %d, want 1", acks)
	}
	_ = m
}

func TestNoAckWhenDisabled(t *testing.T) {
	s, _, peer := rig(t, Config{AckUnlock: false})
	var acks int
	peer.SetReceiver(func(msg bus.Message) {
		if msg.Frame.ID == signal.IDUnlockAck {
			acks++
		}
	})
	peer.Send(command(signal.CmdUnlock))
	s.RunUntil(50 * time.Millisecond)
	if acks != 0 {
		t.Fatal("ack sent despite AckUnlock=false")
	}
}

func TestBodyStatusBroadcastReflectsLockState(t *testing.T) {
	s, m, peer := rig(t, Config{})
	def, _ := signal.VehicleDB().ByID(signal.IDBodyStatus)
	var lastLocked float64 = -1
	peer.SetReceiver(func(msg bus.Message) {
		if msg.Frame.ID == signal.IDBodyStatus {
			vals := def.Decode(msg.Frame)
			lastLocked = vals["DoorsLocked"]
		}
	})
	s.RunUntil(250 * time.Millisecond)
	if lastLocked != 1 {
		t.Fatalf("DoorsLocked = %v, want 1", lastLocked)
	}
	peer.Send(command(signal.CmdUnlock))
	s.RunUntil(500 * time.Millisecond)
	if lastLocked != 0 {
		t.Fatalf("DoorsLocked = %v after unlock, want 0", lastLocked)
	}
	_ = m
}

func TestCheckModeString(t *testing.T) {
	if CheckByteOnly.String() == "" || CheckByteAndLength.String() == "" ||
		CheckTwoBytes.String() == "" || CheckMode(99).String() != "unknown" {
		t.Fatal("CheckMode.String broken")
	}
}

func TestCheckAuthenticatedRejectsBadMAC(t *testing.T) {
	s, m, peer := rig(t, Config{Check: CheckAuthenticated})
	// Well-formed command with the constant (wrong) trailer byte.
	peer.Send(command(signal.CmdUnlock))
	s.RunUntil(10 * time.Millisecond)
	if m.Unlocked() {
		t.Fatal("bad MAC accepted")
	}
	// Correctly authenticated command.
	payload := []byte{signal.CmdUnlock, 0x5F, 1, 0, 0, 1, 0}
	signal.AuthenticateCommand(payload)
	peer.Send(can.MustNew(signal.IDBodyCommand, payload))
	s.RunUntil(20 * time.Millisecond)
	if !m.Unlocked() {
		t.Fatal("valid MAC rejected")
	}
}

func TestCheckAuthenticatedRequiresFullLength(t *testing.T) {
	s, m, peer := rig(t, Config{Check: CheckAuthenticated})
	peer.Send(can.MustNew(signal.IDBodyCommand, []byte{signal.CmdUnlock}))
	s.RunUntil(10 * time.Millisecond)
	if m.Unlocked() {
		t.Fatal("short frame accepted by authenticated parser")
	}
}

func TestAuthenticatedCommandIsReplayable(t *testing.T) {
	// The truncated MAC covers no freshness counter, so a recorded
	// authenticated unlock replays successfully — the gap the paper's CAN
	// authentication reference [24] is about.
	s, m, peer := rig(t, Config{Check: CheckAuthenticated})
	payload := []byte{signal.CmdUnlock, 0x5F, 1, 0, 0, 1, 0}
	signal.AuthenticateCommand(payload)
	recorded := can.MustNew(signal.IDBodyCommand, payload)
	peer.Send(recorded)
	s.RunUntil(10 * time.Millisecond)
	if !m.Unlocked() {
		t.Fatal("precondition failed")
	}
	// Re-lock, then replay the identical recorded frame.
	lock := []byte{signal.CmdLock, 0x5F, 1, 0, 0, 1, 0}
	signal.AuthenticateCommand(lock)
	peer.Send(can.MustNew(signal.IDBodyCommand, lock))
	s.RunUntil(20 * time.Millisecond)
	peer.Send(recorded) // the replay
	s.RunUntil(30 * time.Millisecond)
	if !m.Unlocked() {
		t.Fatal("replay of authenticated command rejected (MAC has no freshness; it must replay)")
	}
}

// TestSendFramesMatchEncode pins the pre-built ACK and status frames to
// the vehicle database's map-keyed encode for every sequence and alive
// value and both lock states.
func TestSendFramesMatchEncode(t *testing.T) {
	db := signal.VehicleDB()
	ackDef, _ := db.ByID(signal.IDUnlockAck)
	statusDef, _ := db.ByID(signal.IDBodyStatus)
	for v := 0; v < 256; v++ {
		want, err := ackDef.Encode(map[string]float64{
			"AckCode": float64(signal.UnlockAckCode),
			"AckSeq":  float64(v),
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := ackFrame(uint8(v)); got != want {
			t.Fatalf("ackFrame(%d) = %v, Encode = %v", v, got, want)
		}
		for _, unlocked := range []bool{false, true} {
			locked := 1.0
			if unlocked {
				locked = 0
			}
			want, err := statusDef.Encode(map[string]float64{
				"DoorsLocked": locked,
				"BodyAlive":   float64(v),
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := statusFrame(unlocked, uint8(v)); got != want {
				t.Fatalf("statusFrame(%v, %d) = %v, Encode = %v", unlocked, v, got, want)
			}
		}
	}
}
